//go:build race

package store

// raceEnabled reports whether the test binary runs under the race
// detector, which makes allocation counts swing.
const raceEnabled = true
