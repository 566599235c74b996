// Package pool is the one scratch-pool primitive: a typed sync.Pool
// that counts its traffic on the default obs registry. Pooling is
// semantically invisible to its users: each reinitializes what it takes.
package pool

import (
	"sync"

	"crashsim/internal/obs"
)

// Pool is a sync.Pool of *T that counts its traffic under
// <name>_hits and <name>_misses. It has no New function: Get returning
// nil from the underlying pool tells a miss from a hit.
type Pool[T any] struct {
	p            sync.Pool
	hits, misses *obs.Counter
}

// New returns a pool counting under name, e.g. "core.pool.tree".
func New[T any](name string) *Pool[T] {
	return &Pool[T]{
		hits:   obs.Default.Counter(name + "_hits"),
		misses: obs.Default.Counter(name + "_misses"),
	}
}

// Get returns a pooled *T, or a fresh zero one on a miss. Its contents
// are whatever its last user left.
func (p *Pool[T]) Get() *T {
	if v := p.p.Get(); v != nil {
		p.hits.Inc()
		return v.(*T)
	}
	p.misses.Inc()
	return new(T)
}

// Put returns x to the pool (a no-op for nil). The caller must not use
// x afterwards.
func (p *Pool[T]) Put(x *T) {
	if x != nil {
		p.p.Put(x)
	}
}
