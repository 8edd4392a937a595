//go:build race

package dexa

func init() { raceEnabled = true }
