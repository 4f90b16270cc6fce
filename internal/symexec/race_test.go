//go:build race

package symexec

func init() { raceEnabled = true }
