package core

import "crashsim/internal/obs"

// Work-done counters. They land in the process-wide obs.Default
// registry so every consumer — the HTTP /metrics endpoint, the bench
// harness's work-done footers — reads one source of truth without the
// estimator APIs growing a registry parameter.
//
// Update discipline: the Monte-Carlo inner loop never touches an
// atomic; walk counts accumulate locally and are added once per
// candidate, pool counters tick once per query or per worker, and the
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

	// Scratch-pool traffic: hits reuse pooled buffers, misses allocate.
	statScratchHits   = obs.Default.Counter("core.pool.scratch_hits")
	statScratchMisses = obs.Default.Counter("core.pool.scratch_misses")
	statWalkHits      = obs.Default.Counter("core.pool.walk_hits")
	statWalkMisses    = obs.Default.Counter("core.pool.walk_misses")
	statTreeHits      = obs.Default.Counter("core.pool.tree_hits")
	statTreeMisses    = obs.Default.Counter("core.pool.tree_misses")
	statPatchHits     = obs.Default.Counter("core.pool.patch_hits")
	statPatchMisses   = obs.Default.Counter("core.pool.patch_misses")
	statTempHits      = obs.Default.Counter("core.pool.temporal_hits")
	statTempMisses    = obs.Default.Counter("core.pool.temporal_misses")
	statFrozenHits    = obs.Default.Counter("core.pool.frozen_hits")
	statFrozenMisses  = obs.Default.Counter("core.pool.frozen_misses")
	statRevAccHits    = obs.Default.Counter("core.pool.revacc_hits")
	statRevAccMisses  = obs.Default.Counter("core.pool.revacc_misses")

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

	// Batch scratch-arena pool traffic, mirroring the core.pool.* pairs.
	statBatchScratchHits   = obs.Default.Counter("core.pool.batch_hits")
	statBatchScratchMisses = obs.Default.Counter("core.pool.batch_misses")

	// statFrozenCompiled counts reverse-reachable trees compiled into
	// the flat FrozenTree form (one per query on the default kernel,
	// top-k queries included, and one per unique source of a batch;
	// zero when DisableFrozenKernel routes through the legacy kernel).
	statFrozenCompiled = obs.Default.Counter("core.frozen.compiled")

	// CrashSim-T pruning outcomes, mirroring TemporalStats cumulatively
	// across runs.
	statTemporalSnapshots   = obs.Default.Counter("core.temporal.snapshots")
	statTemporalEvaluated   = obs.Default.Counter("core.temporal.evaluated")
	statTemporalReusedDelta = obs.Default.Counter("core.temporal.reused_delta")
	statTemporalReusedDiff  = obs.Default.Counter("core.temporal.reused_diff")

	// Incremental-pipeline outcomes (PR 5): how each snapshot's source
	// tree was obtained, compiled-tree reuse, and the candidate-tree
	// cache's hit traffic during difference pruning.
	statTemporalTreePatched  = obs.Default.Counter("core.temporal.tree_patched")
	statTemporalTreeRebuilt  = obs.Default.Counter("core.temporal.tree_rebuilt")
	statTemporalFrozenReused = obs.Default.Counter("core.temporal.frozen_reused")
	statTemporalCandHits     = obs.Default.Counter("core.temporal.candtree_hits")
	statTemporalCandMisses   = obs.Default.Counter("core.temporal.candtree_misses")
)
