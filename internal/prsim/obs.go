package prsim

import "crashsim/internal/obs"

// Package-wide counters on the default registry, served by /metrics.
// They only observe — no estimate depends on them. Per-query values are
// accumulated locally and flushed once per query.
var (
	// statVisits counts walk steps that landed on some node; statHubHits
	// is the subset served by an eagerly indexed hub table, so
	// hub_hits/visits is the live hub-hit rate.
	statVisits  = obs.Default.Counter("prsim.visits")
	statHubHits = obs.Default.Counter("prsim.hub_hits")
	// statTailBuilds counts tables compiled lazily at query time;
	// statEntries counts (step, origin, prob) entries published, eager
	// and lazy alike.
	statTailBuilds = obs.Default.Counter("prsim.tail_builds")
	statEntries    = obs.Default.Counter("prsim.entries")
	// The query pools count under prsim.pool.<name>_hits and _misses:
	// scratch for the work items' accumulators (scratchPool), query for
	// the per-query visit lists (queryPool) and share for the items'
	// shares of an answer (sharePool).
)
