package tempq

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"crashsim/internal/core"
	"crashsim/internal/exact"
	"crashsim/internal/graph"
	"crashsim/internal/linsim"
	"crashsim/internal/probesim"
	"crashsim/internal/reads"
	"crashsim/internal/sling"
	"crashsim/internal/temporal"
	"crashsim/internal/tsf"
)

// Engine answers a temporal SimRank query over a whole temporal graph,
// returning the final candidate set sorted by node id.
type Engine interface {
	Name() string
	Run(tg *temporal.Graph, u graph.NodeID, q Query) ([]graph.NodeID, error)
}

// snapshotScorer computes a full single-source score map on one
// snapshot; the per-snapshot adapters below differ only in this step.
type snapshotScorer func(t int, cur *temporal.Cursor) (map[graph.NodeID]float64, error)

// runPerSnapshot implements the paper's straightforward baseline
// extension (Section II-D): compute the full single-source SimRank at
// every snapshot, then filter the shrinking candidate set afterwards —
// without exploiting the shrinkage or the snapshot similarity.
func runPerSnapshot(tg *temporal.Graph, u graph.NodeID, q Query, score snapshotScorer) ([]graph.NodeID, error) {
	n := tg.NumNodes()
	if u < 0 || int(u) >= n {
		return nil, fmt.Errorf("tempq: source %d out of range for n=%d", u, n)
	}
	if q == nil {
		return nil, fmt.Errorf("tempq: query must not be nil")
	}
	cur, err := tg.Cursor()
	if err != nil {
		return nil, err
	}
	omega := make(map[graph.NodeID]float64, n)
	for t := 0; ; t++ {
		scores, err := score(t, cur)
		if err != nil {
			return nil, err
		}
		if t == 0 {
			for v := 0; v < n; v++ {
				id := graph.NodeID(v)
				if s := scores[id]; q.Keep(0, math.NaN(), s) {
					omega[id] = s
				}
			}
		} else {
			for v, prev := range omega {
				s := scores[v]
				if q.Keep(t, prev, s) {
					omega[v] = s
				} else {
					delete(omega, v)
				}
			}
		}
		if !cur.Next() {
			break
		}
	}
	if err := cur.Err(); err != nil {
		return nil, err
	}
	result := make([]graph.NodeID, 0, len(omega))
	for v := range omega {
		result = append(result, v)
	}
	sort.Slice(result, func(i, j int) bool { return result[i] < result[j] })
	return result, nil
}

// CrashSimT answers temporal queries with the paper's contribution:
// partial recomputation plus delta and difference pruning. One engine
// value is safe for concurrent Run calls: the pruning statistics of
// the most recent Run are kept behind a mutex and read via Stats.
type CrashSimT struct {
	Params  core.Params
	Options core.TemporalOptions

	mu        sync.Mutex
	lastStats core.TemporalStats
}

// Name implements Engine.
func (e *CrashSimT) Name() string { return "crashsim-t" }

// Run implements Engine.
func (e *CrashSimT) Run(tg *temporal.Graph, u graph.NodeID, q Query) ([]graph.NodeID, error) {
	return e.RunCtx(context.Background(), tg, u, q)
}

// RunCtx is Run with cancellation, forwarded into the incremental
// per-snapshot pipeline (checked between snapshots, inside the pruning
// fan-outs and inside the sampling loops).
func (e *CrashSimT) RunCtx(ctx context.Context, tg *temporal.Graph, u graph.NodeID, q Query) ([]graph.NodeID, error) {
	res, err := core.CrashSimTCtx(ctx, tg, u, q, e.Params, e.Options)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.lastStats = res.Stats
	e.mu.Unlock()
	return res.Omega, nil
}

// Stats returns the pruning statistics of the most recent successful
// Run (the zero value before any). With concurrent Runs it reports
// whichever finished last; callers needing per-query stats should use
// core.CrashSimT directly, which returns them with the result.
func (e *CrashSimT) Stats() core.TemporalStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastStats
}

// ProbeSimT re-runs ProbeSim from scratch on every snapshot.
type ProbeSimT struct {
	Options probesim.Options
}

// Name implements Engine.
func (e *ProbeSimT) Name() string { return "probesim" }

// Run implements Engine.
func (e *ProbeSimT) Run(tg *temporal.Graph, u graph.NodeID, q Query) ([]graph.NodeID, error) {
	return runPerSnapshot(tg, u, q, func(_ int, cur *temporal.Cursor) (map[graph.NodeID]float64, error) {
		return probesim.SingleSource(cur.Freeze(), u, e.Options)
	})
}

// SLINGT rebuilds the SLING index on every snapshot (its index has no
// incremental maintenance) and queries it; index time is part of the
// response time, as in the paper's experiments.
type SLINGT struct {
	Options sling.Options
}

// Name implements Engine.
func (e *SLINGT) Name() string { return "sling" }

// Run implements Engine.
func (e *SLINGT) Run(tg *temporal.Graph, u graph.NodeID, q Query) ([]graph.NodeID, error) {
	return runPerSnapshot(tg, u, q, func(_ int, cur *temporal.Cursor) (map[graph.NodeID]float64, error) {
		ix, err := sling.Build(cur.Freeze(), e.Options)
		if err != nil {
			return nil, err
		}
		return ix.SingleSource(u)
	})
}

// READST builds the READS index once on the first snapshot, applies the
// edge deltas incrementally, and queries the full single-source scores
// at every snapshot.
type READST struct {
	Options reads.Options
}

// Name implements Engine.
func (e *READST) Name() string { return "reads" }

// Run implements Engine.
func (e *READST) Run(tg *temporal.Graph, u graph.NodeID, q Query) ([]graph.NodeID, error) {
	var ix *reads.Index
	return runPerSnapshot(tg, u, q, func(t int, cur *temporal.Cursor) (map[graph.NodeID]float64, error) {
		var err error
		if t == 0 {
			ix, err = reads.Build(cur.Freeze(), e.Options)
		} else {
			d := tg.Delta(t - 1)
			err = ix.ApplyDelta(d.Add, d.Del)
		}
		if err != nil {
			return nil, err
		}
		return ix.SingleSource(u)
	})
}

// TSFT builds the TSF one-way-graph index once, applies edge deltas
// incrementally, and queries full single-source scores per snapshot. It
// extends the comparison beyond the paper's engines (DESIGN.md).
type TSFT struct {
	Options tsf.Options
}

// Name implements Engine.
func (e *TSFT) Name() string { return "tsf" }

// Run implements Engine.
func (e *TSFT) Run(tg *temporal.Graph, u graph.NodeID, q Query) ([]graph.NodeID, error) {
	var ix *tsf.Index
	return runPerSnapshot(tg, u, q, func(t int, cur *temporal.Cursor) (map[graph.NodeID]float64, error) {
		var err error
		if t == 0 {
			ix, err = tsf.Build(cur.Freeze(), e.Options)
		} else {
			d := tg.Delta(t - 1)
			err = ix.ApplyDelta(d.Add, d.Del)
		}
		if err != nil {
			return nil, err
		}
		return ix.SingleSource(u)
	})
}

// LinSimT rebuilds the linearized solver on every snapshot (its
// diagonal estimate has no incremental maintenance) and queries it —
// the linearization-family analogue of SLINGT. Beyond the paper's
// engines (DESIGN.md).
type LinSimT struct {
	Options linsim.Options
}

// Name implements Engine.
func (e *LinSimT) Name() string { return "linsim" }

// Run implements Engine.
func (e *LinSimT) Run(tg *temporal.Graph, u graph.NodeID, q Query) ([]graph.NodeID, error) {
	return runPerSnapshot(tg, u, q, func(_ int, cur *temporal.Cursor) (map[graph.NodeID]float64, error) {
		s, err := linsim.New(cur.Freeze(), e.Options)
		if err != nil {
			return nil, err
		}
		col, err := s.SingleSource(u)
		if err != nil {
			return nil, err
		}
		scores := make(map[graph.NodeID]float64, len(col))
		for v, sc := range col {
			if sc != 0 {
				scores[graph.NodeID(v)] = sc
			}
		}
		return scores, nil
	})
}

// PowerT computes exact per-snapshot SimRank with the Power Method; it
// provides the ground-truth result sets for the precision experiments
// (Fig 6) and is only feasible on small graphs.
type PowerT struct {
	Options exact.PowerOptions
}

// Name implements Engine.
func (e *PowerT) Name() string { return "power-method" }

// Run implements Engine.
func (e *PowerT) Run(tg *temporal.Graph, u graph.NodeID, q Query) ([]graph.NodeID, error) {
	return runPerSnapshot(tg, u, q, func(_ int, cur *temporal.Cursor) (map[graph.NodeID]float64, error) {
		res, err := exact.PowerMethod(cur.Freeze(), e.Options)
		if err != nil {
			return nil, err
		}
		row := res.SingleSource(u)
		scores := make(map[graph.NodeID]float64, len(row))
		for v, s := range row {
			scores[graph.NodeID(v)] = s
		}
		return scores, nil
	})
}
