package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"crashsim/internal/core"
	"crashsim/internal/obs"
	"crashsim/internal/temporal"
	"crashsim/internal/tempq"
)

func readHistory(dir string) (*temporal.Graph, error) {
	f, err := os.Open(filepath.Join(dir, historyFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return temporal.Read(bufio.NewReader(f))
}

func temporalQuery(k kind) core.TemporalQuery {
	if k == kindTrend {
		return tempq.Trend{Direction: tempq.Increasing}
	}
	return tempq.Threshold{Theta: theta}
}

// checkedQueries is how many of the window's first queries are re-run
// and compared bit for bit.
const checkedQueries = 2

// runTemporal is the temporal child: one client issues CrashSim-T
// queries back to back, with no HTTP in between.
func runTemporal(ctx context.Context, rc runConfig, res *childResult, traced bool) error {
	w := rc.Workload
	tg, err := readHistory(rc.Dir)
	if err != nil {
		return err
	}
	cur, err := tg.Cursor()
	if err != nil {
		return err
	}
	reqs, err := plan(w, rc.Seed, closedPlanSize, sourcePool(w, cur.Freeze()), rc.Window)
	if err != nil {
		return err
	}
	p := w.params(tg.NumNodes(), rc.Seed)
	var tr *tracer
	if traced {
		tr = newTracer()
	}

	var (
		mu    sync.Mutex
		first = map[int64]*core.TemporalResult{}
		total core.TemporalStats
		ran   int
	)
	query := func(ctx context.Context, r request) (*core.TemporalResult, error) {
		return core.CrashSimTCtx(ctx, tg, r.sources[0], temporalQuery(r.kind), p, core.TemporalOptions{})
	}
	send := func(ctx context.Context, id int64, r request) (int, error) {
		var out *core.TemporalResult
		var err error
		if traced {
			out, err = timed(tr, context.WithValue(ctx, reqKey{}, id), "core.crashsimt", func(ctx context.Context) (*core.TemporalResult, error) {
				return query(ctx, r)
			})
		} else {
			out, err = query(ctx, r)
		}
		if err != nil {
			return 0, err
		}
		mu.Lock()
		defer mu.Unlock()
		if id < checkedQueries {
			first[id] = out
		}
		addStats(&total, out.Stats)
		ran++
		return 200, nil
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := obs.Default.Snapshot()
	rssWindow := sampleRSS()
	out, elapsed := closedLoop(ctx, reqs, 1, rc.Window, send)
	delta := obs.Default.Snapshot().Delta(before)
	runtime.ReadMemStats(&m1)
	mt := res.Metrics
	if err := memoryMetrics(res, rssWindow); err != nil {
		return err
	}
	endToEndMetrics(w, res, out, summarize(out), elapsed)
	mt["load.conns"] = 0
	mt["load.inflight_max"] = 1
	counterMetrics(mt, delta, w.Algo, float64(ran))
	runtimeMetrics(mt, &m0, &m1, len(out))
	perQuery := func(x int) float64 { return ratio(float64(x), float64(ran)) }
	mt["core.temporal.tree_patched"] = perQuery(total.TreePatched)
	mt["core.temporal.tree_rebuilt"] = perQuery(total.TreeRebuilt)
	mt["core.temporal.frozen_reused"] = perQuery(total.FrozenReused)
	mt["core.temporal.candtree_hit_ratio"] = ratio(float64(total.CandTreeHits), float64(total.CandTreeHits+total.CandTreeMisses))
	mt["core.temporal.evaluated_per_query"] = perQuery(total.Evaluated)
	mt["core.temporal.reused_per_query"] = perQuery(total.ReusedDelta + total.ReusedDiff)
	res.note("%s: %d CrashSim-T queries over %v (closed loop, 1 client), %d snapshots, n=%d, n_r=%d",
		w.Name, len(out), elapsed.Round(time.Millisecond), tg.NumSnapshots(), tg.NumNodes(), p.Iterations)

	for id := range int64(checkedQueries) {
		want, ok := first[id]
		if !ok {
			res.fail("query %d did not complete", id)
			continue
		}
		got, err := query(ctx, reqs[id])
		if err != nil {
			return err
		}
		if err := sameTemporal(got, want); err != nil {
			res.fail("re-run of query %d (%s from %d): %v", id, reqs[id].kind, reqs[id].sources[0], err)
		}
	}
	res.note("  re-ran %d queries: Omega and Final compared bit for bit", checkedQueries)

	if traced {
		spans := tr.recorded()
		if d := tr.dropped.Load(); d > 0 {
			res.fail("trace buffer dropped %d spans", d)
		}
		var ds []time.Duration
		for _, s := range spans {
			ds = append(ds, s.end-s.start)
		}
		mt["core.crashsimt_ms_p50"] = medianMS(ds)
		selfShares(mt, spans, selfTimes(spans))
		return writeTrace(rc, spans, res)
	}
	return nil
}

func addStats(t *core.TemporalStats, s core.TemporalStats) {
	t.Evaluated += s.Evaluated
	t.ReusedDelta += s.ReusedDelta
	t.ReusedDiff += s.ReusedDiff
	t.TreePatched += s.TreePatched
	t.TreeRebuilt += s.TreeRebuilt
	t.FrozenReused += s.FrozenReused
	t.CandTreeHits += s.CandTreeHits
	t.CandTreeMisses += s.CandTreeMisses
}

func sameTemporal(got, want *core.TemporalResult) error {
	if !slices.Equal(got.Omega, want.Omega) {
		return fmt.Errorf("Omega differs: %d vs %d nodes", len(got.Omega), len(want.Omega))
	}
	if len(got.Final) != len(want.Final) {
		return fmt.Errorf("Final has %d scores, first run %d", len(got.Final), len(want.Final))
	}
	for v, s := range want.Final {
		if g, ok := got.Final[v]; !ok || math.Float64bits(g) != math.Float64bits(s) {
			return fmt.Errorf("Final[%d] = %v, first run %v", v, g, s)
		}
	}
	return nil
}

// scanHistory walks a cursor across every snapshot.
func scanHistory(tg *temporal.Graph) (time.Duration, error) {
	t0 := time.Now()
	cur, err := tg.Cursor()
	if err != nil {
		return 0, err
	}
	for cur.Next() {
	}
	if err := cur.Err(); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}
