// Package cache is the serving layer's query-result cache: a sharded
// LRU keyed by opaque strings, with byte-accounted capacity, optional
// TTL expiry, and singleflight-style request coalescing so N
// concurrent identical misses trigger exactly one backend computation.
//
// CrashSim's Monte-Carlo estimates are deterministic for a fixed seed
// and fixed parameters, so a result computed once is correct for every
// later request against the same graph state — the only invalidation
// signal a key needs is the graph's version (see graph.Graph.Version
// and internal/engine's Cached wrapper, which folds backend name,
// effective parameters and graph version into the key). The cache
// itself is value-agnostic: it stores `any` and leaves cloning
// discipline to the caller, because only the caller knows whether a
// value is aliasable.
//
// Design constraints, in the spirit of internal/obs:
//
//   - Hot-path cost. A hit takes one shard mutex, a map lookup and an
//     LRU list splice; no allocation beyond what the caller's clone
//     policy requires. Shard count is a power of two so routing is a
//     hash-and-mask.
//   - Bounded memory. Capacity is accounted in bytes, not entries —
//     a single-source result on a dense hub node can be thousands of
//     times larger than a pair score. Each shard evicts its own LRU
//     tail; an entry larger than a whole shard is simply not cached.
//   - Coalescing. A miss registers an in-flight call; concurrent
//     requests for the same key wait for it instead of recomputing.
//     Waiters honor their own context, and a leader failure caused by
//     the leader's context does not poison waiters whose contexts are
//     still live — they recompute themselves.
//
// Metrics land in an obs.Registry under the "cache." prefix:
// cache.hits, cache.misses, cache.coalesced, cache.evictions,
// cache.expired counters plus cache.bytes and cache.entries gauges.
package cache

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"sync"
	"time"

	"crashsim/internal/obs"
)

// DefaultShards is the shard count when Config.Shards is zero: enough
// to keep shard mutexes uncontended at typical serving parallelism
// without fragmenting the byte budget into uselessly small slices.
const DefaultShards = 16

// Config sizes a Cache.
type Config struct {
	// MaxBytes bounds the total accounted size of cached values plus
	// their keys, across all shards. Required (> 0).
	MaxBytes int64
	// TTL bounds every entry's lifetime. Zero or negative means entries
	// never expire by age — version-keyed invalidation (the engine
	// wrapper's job) is the primary staleness defense; TTL is for
	// deployments that also want a hard recency bound.
	TTL time.Duration
	// Shards is the shard count, rounded up to a power of two.
	// Zero means DefaultShards.
	Shards int
	// Metrics receives the cache's counters and gauges. Nil means
	// obs.Default.
	Metrics *obs.Registry
}

// Cache is a sharded, byte-bounded LRU with request coalescing.
// All methods are safe for concurrent use.
type Cache struct {
	shards []shard
	mask   uint64
	seed   maphash.Seed
	ttl    time.Duration
	max    int64 // total byte budget

	now func() time.Time // injected in tests

	hits      *obs.Counter
	misses    *obs.Counter
	coalesced *obs.Counter
	evictions *obs.Counter
	expired   *obs.Counter
	bytes     *obs.Gauge
	entries   *obs.Gauge
}

type shard struct {
	mu     sync.Mutex
	items  map[string]*list.Element // key -> element holding *entry
	lru    *list.List               // front = most recently used
	bytes  int64
	max    int64 // this shard's byte budget
	flight map[string]*call
}

type entry struct {
	key     string
	val     any
	size    int64
	expires time.Time // zero = never
}

// call is one in-flight computation that concurrent requests join.
type call struct {
	done chan struct{} // closed when val/err are set
	val  any
	err  error
}

// New builds a cache. It returns an error (not a panic) for a
// non-positive byte budget so flag-driven callers surface
// misconfiguration cleanly.
func New(cfg Config) (*Cache, error) {
	if cfg.MaxBytes <= 0 {
		return nil, fmt.Errorf("cache: MaxBytes must be positive, got %d", cfg.MaxBytes)
	}
	n := cfg.Shards
	if n <= 0 {
		n = DefaultShards
	}
	// Round up to a power of two so routing is hash & mask.
	pow := 1
	for pow < n {
		pow <<= 1
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default
	}
	ttl := cfg.TTL
	if ttl < 0 {
		ttl = 0
	}
	c := &Cache{
		shards:    make([]shard, pow),
		mask:      uint64(pow - 1),
		seed:      maphash.MakeSeed(),
		ttl:       ttl,
		max:       cfg.MaxBytes,
		now:       time.Now,
		hits:      reg.Counter("cache.hits"),
		misses:    reg.Counter("cache.misses"),
		coalesced: reg.Counter("cache.coalesced"),
		evictions: reg.Counter("cache.evictions"),
		expired:   reg.Counter("cache.expired"),
		bytes:     reg.Gauge("cache.bytes"),
		entries:   reg.Gauge("cache.entries"),
	}
	per := cfg.MaxBytes / int64(pow)
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i] = shard{
			items:  make(map[string]*list.Element),
			lru:    list.New(),
			max:    per,
			flight: make(map[string]*call),
		}
	}
	return c, nil
}

func (c *Cache) shardFor(key string) *shard {
	h := maphash.String(c.seed, key)
	return &c.shards[h&c.mask]
}

// Get returns the cached value for key, if present and fresh. The
// returned value is the canonical stored copy: callers that hand it to
// code which may mutate it must clone first.
func (c *Cache) Get(key string) (any, bool) {
	v, ok := c.Probe(key)
	if !ok {
		c.misses.Inc()
	}
	return v, ok
}

// Probe is Get without counting a miss, for callers that go on to fill
// a missing key through Do, which counts the miss itself. A hit counts
// as a hit, so each lookup is counted exactly once.
func (c *Cache) Probe(key string) (any, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	e, ok := c.lookup(s, key)
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	c.hits.Inc()
	return e.val, true
}

// lookup finds a live entry and refreshes its LRU position, removing
// it instead when expired. Caller holds s.mu.
func (c *Cache) lookup(s *shard, key string) (*entry, bool) {
	el, ok := s.items[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*entry)
	if !e.expires.IsZero() && c.now().After(e.expires) {
		c.removeLocked(s, el, e)
		c.expired.Inc()
		return nil, false
	}
	s.lru.MoveToFront(el)
	return e, true
}

// Put stores val under key with the given accounted size (the key's
// length is added on top). Values larger than a shard's whole budget
// are not cached. An existing entry for key is replaced.
func (c *Cache) Put(key string, val any, size int64) {
	s := c.shardFor(key)
	total := size + int64(len(key))
	if total > s.max {
		return
	}
	exp := time.Time{}
	if c.ttl > 0 {
		exp = c.now().Add(c.ttl)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		c.removeLocked(s, el, el.Value.(*entry))
	}
	e := &entry{key: key, val: val, size: total, expires: exp}
	s.items[key] = s.lru.PushFront(e)
	s.bytes += total
	c.bytes.Add(total)
	c.entries.Inc()
	for s.bytes > s.max {
		tail := s.lru.Back()
		if tail == nil {
			break
		}
		c.removeLocked(s, tail, tail.Value.(*entry))
		c.evictions.Inc()
	}
}

// removeLocked unlinks an entry and returns its bytes. Caller holds s.mu.
func (c *Cache) removeLocked(s *shard, el *list.Element, e *entry) {
	s.lru.Remove(el)
	delete(s.items, e.key)
	s.bytes -= e.size
	c.bytes.Add(-e.size)
	c.entries.Dec()
}

// Do returns the value for key, computing it at most once across
// concurrent callers: a hit returns immediately; the first miss runs
// compute and stores a successful result; concurrent misses for the
// same key wait for that leader instead of recomputing.
//
// compute must return the value to cache plus its accounted size in
// bytes. The value returned by Do is the canonical cached copy shared
// with other callers — clone before mutating.
//
// Context discipline: the leader computes under its own ctx. A waiter
// whose ctx expires returns its ctx.Err() without disturbing the
// leader. If the leader fails with a context error but a waiter's own
// ctx is still live, the waiter recomputes directly rather than
// inheriting a cancellation that was never its own.
//
// The second return reports whether the value came from the cache (a
// hit or a coalesced join) rather than this caller's own computation.
func (c *Cache) Do(ctx context.Context, key string, compute func(ctx context.Context) (val any, size int64, err error)) (any, bool, error) {
	s := c.shardFor(key)
	s.mu.Lock()
	if e, ok := c.lookup(s, key); ok {
		s.mu.Unlock()
		c.hits.Inc()
		return e.val, true, nil
	}
	if cl, inflight := s.flight[key]; inflight {
		s.mu.Unlock()
		c.coalesced.Inc()
		select {
		case <-cl.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if cl.err == nil {
			return cl.val, true, nil
		}
		if isCtxErr(cl.err) && ctx.Err() == nil {
			// The leader was canceled, not us: compute for ourselves.
			val, size, err := compute(ctx)
			if err != nil {
				return nil, false, err
			}
			c.Put(key, val, size)
			return val, false, nil
		}
		return nil, false, cl.err
	}
	cl := &call{done: make(chan struct{})}
	s.flight[key] = cl
	s.mu.Unlock()
	c.misses.Inc()

	cl.val, _, cl.err = func() (any, int64, error) {
		val, size, err := compute(ctx)
		if err == nil {
			c.Put(key, val, size)
		}
		return val, size, err
	}()

	s.mu.Lock()
	delete(s.flight, key)
	s.mu.Unlock()
	close(cl.done)

	if cl.err != nil {
		return nil, false, cl.err
	}
	return cl.val, false, nil
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Stats is a point-in-time view of the cache's counters and occupancy.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
	Evictions uint64 `json:"evictions"`
	Expired   uint64 `json:"expired"`
	Entries   int64  `json:"entries"`
	Bytes     int64  `json:"bytes"`
	MaxBytes  int64  `json:"max_bytes"`
	Shards    int    `json:"shards"`
	TTL       string `json:"ttl,omitempty"`
}

// Stats snapshots the cache. Counter reads are atomic loads; the
// snapshot may be off by in-flight operations, which is fine for
// monitoring.
func (c *Cache) Stats() Stats {
	st := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
		Expired:   c.expired.Load(),
		Entries:   c.entries.Load(),
		Bytes:     c.bytes.Load(),
		MaxBytes:  c.max,
		Shards:    len(c.shards),
	}
	if c.ttl > 0 {
		st.TTL = c.ttl.String()
	}
	return st
}

// HitRatio returns hits / (hits + misses), or 0 before any lookup. It
// is two atomic loads and a division — allocation-free by design, so
// health endpoints can report it on their fast path (the server's
// benchmark enforces this).
func (c *Cache) HitRatio() float64 {
	h := c.hits.Load()
	m := c.misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// Len returns the number of live entries (including any that have
// expired but not yet been touched).
func (c *Cache) Len() int {
	var n int
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}
