package core

import "crashsim/internal/obs"

// Work-done counters. They land in the process-wide obs.Default
// registry so every consumer — the HTTP /metrics endpoint, the bench
// harness's work-done footers — reads one source of truth without the
// estimator APIs growing a registry parameter.
//
// Update discipline: the Monte-Carlo inner loop never touches an
// atomic; walk counts accumulate locally and are added once per
// estimate, pool counters (scratch.go) tick once per acquire, and the
// temporal counters tick once per CrashSim-T run. Counters never
// influence results — the determinism tests stay bit-exact.
var (
	// statWalks counts truncated √c-walks actually sampled (prefiltered
	// candidates sample none).
	statWalks = obs.Default.Counter("core.walks")
	// statCandidates counts candidates requested across all queries.
	statCandidates = obs.Default.Counter("core.candidates")
	// statPrefilterPruned counts candidates the zero-score prefilter
	// proved zero without sampling; pruned/candidates is the prune rate.
	statPrefilterPruned = obs.Default.Counter("core.prefilter_pruned")

	// Batched multi-source pipeline traffic: batches counts MultiSource
	// calls, sources the requested sources across them, dedup_hits the
	// repeated sources satisfied by cloning a batch-mate's result
	// instead of re-sampling, and items the flattened (source,
	// candidate) work units that reached the fan-out (post-dedup,
	// post-prefilter). sources/batches is the mean batch size;
	// dedup_hits/sources is the fraction of requests amortized away.
	statBatches      = obs.Default.Counter("core.batch.batches")
	statBatchSources = obs.Default.Counter("core.batch.sources")
	statBatchDedup   = obs.Default.Counter("core.batch.dedup_hits")
	statBatchItems   = obs.Default.Counter("core.batch.items")

	// CrashSim-T pruning outcomes, mirroring TemporalStats cumulatively
	// across runs.
	statTemporalSnapshots   = obs.Default.Counter("core.temporal.snapshots")
	statTemporalEvaluated   = obs.Default.Counter("core.temporal.evaluated")
	statTemporalReusedDelta = obs.Default.Counter("core.temporal.reused_delta")
	statTemporalReusedDiff  = obs.Default.Counter("core.temporal.reused_diff")

	// Incremental-pipeline outcomes: how each snapshot's source tree was
	// obtained, and estimates that reused the previous estimate's tree
	// (the frozen_reused name predates the probe index).
	statTemporalTreeRebuilt  = obs.Default.Counter("core.temporal.tree_rebuilt")
	statTemporalFrozenReused = obs.Default.Counter("core.temporal.frozen_reused")
)
