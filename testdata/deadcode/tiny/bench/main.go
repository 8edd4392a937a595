package main

import "tiny/lib"

func main() { println(lib.OnlyBench()) }
