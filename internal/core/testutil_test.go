package core

import (
	"runtime"

	"crashsim/internal/rng"
)

// newTestRand returns a deterministic generator for walk-level tests.
func newTestRand(seed uint64) *rng.Source {
	return rng.New(seed)
}

// emptyPools empties every scratch pool: the first collection moves a
// sync.Pool's items to its victim cache, the second drops them, so the
// next query starts from cold scratch.
func emptyPools() {
	runtime.GC()
	runtime.GC()
}
