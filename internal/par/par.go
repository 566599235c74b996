// Package par provides the one concurrency primitive the algorithms
// share: a deterministic parallel for-loop over an index range, used to
// fan out independent per-node work (index pushes, matrix rows,
// candidate estimates). Work items must not depend on each other; the
// results are bit-identical for any worker count.
package par

import (
	"context"
	"sync"
	"sync/atomic"
)

// chunksPerWorker sets the handout granularity of the parallel loop:
// each worker claims ~1/chunksPerWorker of its fair share per atomic
// operation. Larger values balance skewed workloads better; smaller
// values touch the shared counter (and poll ctx) less. 8 keeps the
// tail-latency loss under one eighth of a worker's share while cutting
// the per-item shared-cacheline traffic to one access per chunk.
const chunksPerWorker = 8

// ForEachCtx runs fn(i) for every i in [0, n) across up to workers
// goroutines; workers <= 1 runs inline. Workers claim contiguous index
// chunks from a shared counter (one atomic operation and one ctx poll
// per chunk, not per item — ctx.Err on a cancelable context takes a
// mutex, which at per-item frequency serializes the workers) and stop
// claiming once ctx is done, returning ctx.Err(). Work items already
// started — at most one chunk per worker — run to completion, so fn
// never observes a torn loop; callers must treat a non-nil error as
// "results incomplete". Chunking only changes how indices are handed
// out, never which indices run, so results stay bit-identical for any
// worker count. A nil ctx means context.Background().
func ForEachCtx(ctx context.Context, n, workers int, fn func(int)) error {
	if ctx == nil {
		// Recurse rather than reassign: the workers capture ctx, and a
		// reassigned parameter would be moved to the heap on every call.
		return ForEachCtx(context.Background(), n, workers, fn)
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	chunk := chunkSize(n, workers)
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				end := int(next.Add(int64(chunk)))
				start := end - chunk
				if start >= n {
					return
				}
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// chunkSize returns the handout granularity for a loop of n items on
// the given worker count: a worker's fair share divided by
// chunksPerWorker, at least 1.
func chunkSize(n, workers int) int {
	c := n / (workers * chunksPerWorker)
	if c < 1 {
		return 1
	}
	return c
}
