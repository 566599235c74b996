//go:build race

package linsim

// raceEnabled reports whether the test binary runs under the race
// detector, which allocates on its own and drops pooled items at
// random, so allocation counts swing.
const raceEnabled = true
