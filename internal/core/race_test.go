//go:build race

package core

// raceEnabled reports whether the test binary runs under the race
// detector, which drops pooled items at random and so makes allocation
// counts swing.
const raceEnabled = true
