//go:build race

package sling

// raceEnabled reports whether the test binary runs under the race
// detector, which allocates on its own, so allocation counts swing.
const raceEnabled = true
