//go:build race

package match_test

func init() { raceEnabled = true }
