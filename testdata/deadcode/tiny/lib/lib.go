// Package lib is the guard's test fixture: each declaration exercises
// one of TestDeadCode's rules.
package lib

import "fmt"

// Used is reached from main.
func Used() string { return helper() }

func helper() string { return "x" }

// Describe is reached from main and formats a Named, so the String
// method through which Named implements fmt.Stringer is reached too.
func Describe() string { return fmt.Sprint(Named{}) }

// Named implements fmt.Stringer.
type Named struct{}

func (Named) String() string { return "named" }

// Ghost implements fmt.Stringer, but nothing reaches the type.
type Ghost struct{}

func (Ghost) String() string { return "ghost" }

// Orphan is reached from nothing; orphanHelper only from Orphan.
func Orphan() string { return orphanHelper() }

func orphanHelper() string { return "y" }

// OnlyTested is referenced only from lib_test.go.
func OnlyTested() int { return 1 }

// OnlyBench is referenced only from the benchmark harness, and
// benchHelper only from OnlyBench.
func OnlyBench() int { return benchHelper() }

func benchHelper() int { return 2 }
