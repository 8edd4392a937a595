package main

import (
	"fmt"

	"tiny/lib"
)

func main() { fmt.Println(lib.Used(), lib.Describe()) }
