//go:build race

package temporal_test

// raceEnabled reports whether the test binary runs under the race
// detector, which instruments allocations and so makes allocation
// counts swing.
const raceEnabled = true
