//go:build race

package lm

func init() { raceEnabled = true }
