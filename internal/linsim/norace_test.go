//go:build !race

package linsim

// raceEnabled reports whether the test binary runs under the race
// detector; see race_test.go.
const raceEnabled = false
