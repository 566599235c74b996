// Package reads implements the READS baseline (Jiang et al., PVLDB
// 2017): an index-based single-source SimRank method for dynamic graphs.
//
// The index stores r independent √c-walks from every node, organized in
// an inverted occurrence index mapping (sample, step, node) to the walk
// origins passing through — so a single-source query scans the source's
// r walks and collects, per sample, every origin that co-locates with it
// (first co-location per origin per sample), giving the meeting-
// probability estimate sim(u,v) ≈ (1/r)·#{samples whose walks meet}.
//
// On an edge update only the walks whose trajectory passes through the
// edge's head (whose in-neighbor list changed) are regenerated, which is
// READS' key property: incremental maintenance instead of a full
// rebuild. The original system's r_q query-time refinement is
// reproduced as well: RQ fresh walks are sampled from the source at
// query time and matched against the stored index, adding source-side
// randomness beyond the r stored walks.
package reads

import (
	"context"
	"fmt"
	"math"

	"crashsim/internal/graph"
	"crashsim/internal/par"
	"crashsim/internal/rng"
)

// Options configures the index. The paper's experiments use r = 100 and
// walk length cap t = 10.
type Options struct {
	// C is the SimRank decay factor in (0,1). Default 0.6.
	C float64
	// R is the number of stored walks per node. Default 100, at most
	// maxR.
	R int
	// MaxLen caps the stored walk length. Default 10, at most
	// maxMaxLen.
	MaxLen int
	// RQ is the number of fresh source walks sampled per query (the
	// paper's r_q, default 10 there). 0 disables the refinement and
	// queries use only the stored walks. At most maxRQ.
	RQ int
	// Seed makes walk generation deterministic.
	Seed uint64
	// Workers bounds index-construction parallelism (per-node walk
	// sampling fans out; every walk draws from its own (sample, origin)
	// seeded stream and the inverted index is assembled serially in node
	// order, so the built index is byte-identical for any value).
	// Default 1.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.C == 0 {
		o.C = 0.6
	}
	if o.R == 0 {
		o.R = 100
	}
	if o.MaxLen == 0 {
		o.MaxLen = 10
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
	return o
}

// Upper bounds on the options that size build and query work. A
// snapshot stores them as u32 fields, and Validate is what keeps a
// forged value from running the build or the query-time refinement
// walks for minutes. Each sits far above anything used in this
// repository: the paper's r = 100, t = 10 and r_q = 10, and the
// largest test's r = r_q = 1500.
const (
	maxR      = 1 << 16
	maxMaxLen = 1024
	maxRQ     = 1 << 16
)

// Validate checks option ranges after defaulting. The float check is
// written so that NaN fails it.
func (o Options) Validate() error {
	q := o.withDefaults()
	if !(q.C > 0 && q.C < 1) {
		return fmt.Errorf("reads: decay factor c=%g outside (0,1)", q.C)
	}
	if q.R < 1 || q.R > maxR {
		return fmt.Errorf("reads: R %d outside [1,%d]", q.R, maxR)
	}
	if q.MaxLen < 1 || q.MaxLen > maxMaxLen {
		return fmt.Errorf("reads: MaxLen %d outside [1,%d]", q.MaxLen, maxMaxLen)
	}
	if q.RQ < 0 || q.RQ > maxRQ {
		return fmt.Errorf("reads: RQ %d outside [0,%d]", q.RQ, maxRQ)
	}
	if q.Workers < 1 {
		return fmt.Errorf("reads: workers must be >= 1, got %d", q.Workers)
	}
	return nil
}

// posKey addresses one (step, node) slot within a sample's inverted
// index.
type posKey struct {
	step int32
	node graph.NodeID
}

// Index holds the stored walks over a mutable graph.
type Index struct {
	opt   Options
	g     *graph.DiGraph
	walks [][][]graph.NodeID          // walks[k][v] = k-th stored walk of v
	inv   []map[posKey][]graph.NodeID // per sample: (step,node) -> origins
	sc    float64
	// srcVersion is the frozen graph version an imported index was
	// bound to (see serde.go); 0 for directly built indexes.
	srcVersion uint64

	// flat/fg, when set, replace walks/inv/g with the compiled run form
	// over a frozen graph (see flat.go); the arrays may alias a
	// read-only snapshot mapping. The first mutation materializes the
	// heap form above and clears flat.
	flat *Flat
	fg   *graph.Graph
	// release gives borrowed memory back to its owner (drops the
	// mapping reference an imported-from-mmap index holds).
	release func() error
}

// Close releases any borrowed memory backing the index (a no-op for
// built or copied indexes). Idempotent; the index must not be queried
// afterwards.
func (ix *Index) Close() error {
	r := ix.release
	ix.release = nil
	if r == nil {
		return nil
	}
	return r()
}

// SetRelease attaches the borrowed-memory release hook; the store
// layer calls it when an index is imported aliasing a mapping.
func (ix *Index) SetRelease(f func() error) { ix.release = f }

// numNodes works for both the mutable and the borrowed representation.
func (ix *Index) numNodes() int {
	if ix.g != nil {
		return ix.g.NumNodes()
	}
	return ix.fg.NumNodes()
}

// Build generates the r walks per node on a private copy of g's current
// state.
func Build(g *graph.DiGraph, opt Options) (*Index, error) {
	return BuildCtx(context.Background(), g, opt)
}

// BuildCtx is Build with cancellation. The per-node walk sampling fans
// out across opt.Workers: every walk draws from its own (sample,
// origin) seeded stream, so parallel sampling produces the same walks
// as serial, and the inverted occurrence index is then assembled
// serially in (sample, node) order — the built index is byte-identical
// for any worker count (mirroring how sling.Build parallelizes its
// pushes).
func BuildCtx(ctx context.Context, g *graph.DiGraph, opt Options) (*Index, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := opt.withDefaults()
	if err := o.Validate(); err != nil {
		return nil, err
	}
	ix := &Index{
		opt:   o,
		g:     g.Clone(),
		walks: make([][][]graph.NodeID, o.R),
		inv:   make([]map[posKey][]graph.NodeID, o.R),
		sc:    math.Sqrt(o.C),
	}
	n := ix.g.NumNodes()
	for k := 0; k < o.R; k++ {
		ix.walks[k] = make([][]graph.NodeID, n)
		ix.inv[k] = make(map[posKey][]graph.NodeID, n)
	}
	// One fan-out over origins, all samples per origin: walks[k][v]
	// slots are disjoint per v, so workers never share a write target.
	if err := par.ForEachCtx(ctx, n, o.Workers, func(v int) {
		for k := 0; k < o.R; k++ {
			ix.walks[k][v] = ix.sampleStored(k, graph.NodeID(v))
		}
	}); err != nil {
		return nil, err
	}
	for k := 0; k < o.R; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for v := 0; v < n; v++ {
			ix.indexWalk(k, graph.NodeID(v))
		}
	}
	return ix, nil
}

// sampleStored draws the k-th stored walk of origin v from its
// dedicated (sample, origin) stream.
func (ix *Index) sampleStored(k int, v graph.NodeID) []graph.NodeID {
	r := rng.Split(ix.opt.Seed^uint64(k)<<32, uint64(v))
	w := []graph.NodeID{v}
	cur := v
	for step := 0; step < ix.opt.MaxLen; step++ {
		if r.Float64() >= ix.sc {
			break
		}
		in := ix.g.In(cur)
		if len(in) == 0 {
			break
		}
		cur = in[r.IntN(len(in))]
		w = append(w, cur)
	}
	return w
}

// indexWalk adds the k-th stored walk of origin v to the inverted
// occurrence index.
func (ix *Index) indexWalk(k int, v graph.NodeID) {
	w := ix.walks[k][v]
	for step := 1; step < len(w); step++ {
		key := posKey{step: int32(step), node: w[step]}
		ix.inv[k][key] = append(ix.inv[k][key], v)
	}
}

// storeWalk samples and indexes the k-th walk of origin v (the update
// path's serial primitive).
func (ix *Index) storeWalk(k int, v graph.NodeID) {
	ix.walks[k][v] = ix.sampleStored(k, v)
	ix.indexWalk(k, v)
}

// dropWalk removes the k-th walk of origin v from the inverted index.
func (ix *Index) dropWalk(k int, v graph.NodeID) {
	w := ix.walks[k][v]
	for step := 1; step < len(w); step++ {
		key := posKey{step: int32(step), node: w[step]}
		list := ix.inv[k][key]
		for i, origin := range list {
			if origin == v {
				list[i] = list[len(list)-1]
				ix.inv[k][key] = list[:len(list)-1]
				break
			}
		}
		if len(ix.inv[k][key]) == 0 {
			delete(ix.inv[k], key)
		}
	}
}

// ApplyEdge updates the index for a single edge insertion (add = true)
// or deletion. The head node's in-neighbor list changes, so every stored
// walk visiting the head at any step before its last is resampled, plus
// all walks originating at the head.
func (ix *Index) ApplyEdge(e graph.Edge, add bool) error {
	ix.materialize()
	var err error
	if add {
		err = ix.g.AddEdge(e.X, e.Y)
	} else {
		err = ix.g.RemoveEdge(e.X, e.Y)
	}
	if err != nil {
		return fmt.Errorf("reads: applying edge update: %w", err)
	}
	heads := []graph.NodeID{e.Y}
	if !ix.g.Directed() {
		heads = append(heads, e.X)
	}
	for k := 0; k < ix.opt.R; k++ {
		affected := map[graph.NodeID]struct{}{}
		for _, h := range heads {
			affected[h] = struct{}{}
			for step := 1; step <= ix.opt.MaxLen; step++ {
				for _, origin := range ix.inv[k][posKey{step: int32(step), node: h}] {
					affected[origin] = struct{}{}
				}
			}
		}
		for v := range affected {
			ix.dropWalk(k, v)
			ix.storeWalk(k, v)
		}
	}
	return nil
}

// ApplyDelta applies a batch of deletions then insertions.
func (ix *Index) ApplyDelta(add, del []graph.Edge) error {
	for _, e := range del {
		if err := ix.ApplyEdge(e, false); err != nil {
			return err
		}
	}
	for _, e := range add {
		if err := ix.ApplyEdge(e, true); err != nil {
			return err
		}
	}
	return nil
}

// SingleSource estimates sim(u, ·): per sample, the origins co-locating
// with u's walk (first co-location per origin per sample) each
// contribute one count; counts are averaged over the r stored samples
// plus the RQ fresh source walks.
func (ix *Index) SingleSource(u graph.NodeID) (map[graph.NodeID]float64, error) {
	return ix.SingleSourceCtx(context.Background(), u)
}

// SingleSourceCtx is SingleSource with cancellation, checked between
// stored samples and between fresh walks.
func (ix *Index) SingleSourceCtx(ctx context.Context, u graph.NodeID) (map[graph.NodeID]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := ix.numNodes()
	if u < 0 || int(u) >= n {
		return nil, fmt.Errorf("reads: source %d out of range for n=%d", u, n)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	scores := make(map[graph.NodeID]float64, 64)
	met := make(map[graph.NodeID]struct{}, 64)
	samples := ix.opt.R + ix.opt.RQ
	inc := 1 / float64(samples)
	borrowed := ix.flat != nil
	for k := 0; k < ix.opt.R; k++ {
		if k&31 == 31 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if borrowed {
			ix.accumulateFlat(k, ix.walkFlat(k, u), u, inc, met, scores)
		} else {
			ix.accumulate(k, ix.walks[k][u], u, inc, met, scores)
		}
	}
	// r_q refinement: fresh source walks matched against stored index
	// samples round-robin.
	if ix.opt.RQ > 0 {
		r := rng.Split(ix.opt.Seed^0xdeadbeef, uint64(u))
		w := make([]graph.NodeID, 0, ix.opt.MaxLen+1)
		for f := 0; f < ix.opt.RQ; f++ {
			if f&31 == 31 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			w = ix.sampleFresh(u, r, w)
			if borrowed {
				ix.accumulateFlat(f%ix.opt.R, w, u, inc, met, scores)
			} else {
				ix.accumulate(f%ix.opt.R, w, u, inc, met, scores)
			}
		}
	}
	scores[u] = 1
	return scores, nil
}

// accumulate adds one sample's first co-locations of walk w (from u)
// against stored sample k.
func (ix *Index) accumulate(k int, w []graph.NodeID, u graph.NodeID, inc float64,
	met map[graph.NodeID]struct{}, scores map[graph.NodeID]float64) {
	clear(met)
	for step := 1; step < len(w); step++ {
		for _, origin := range ix.inv[k][posKey{step: int32(step), node: w[step]}] {
			if origin == u {
				continue
			}
			if _, seen := met[origin]; seen {
				continue
			}
			met[origin] = struct{}{}
			scores[origin] += inc
		}
	}
}

// sampleFresh draws a query-time √c-walk from u on the current graph.
// A borrowed index samples the frozen CSR in-lists, which are
// elementwise identical to the DiGraph Build samples when handed a
// copy of the same graph — the walks, and therefore the scores, match
// bit for bit.
func (ix *Index) sampleFresh(u graph.NodeID, r *rng.Source, buf []graph.NodeID) []graph.NodeID {
	buf = append(buf[:0], u)
	cur := u
	for step := 0; step < ix.opt.MaxLen; step++ {
		if r.Float64() >= ix.sc {
			break
		}
		var in []graph.NodeID
		if ix.g != nil {
			in = ix.g.In(cur)
		} else {
			in = ix.fg.In(cur)
		}
		if len(in) == 0 {
			break
		}
		cur = in[r.IntN(len(in))]
		buf = append(buf, cur)
	}
	return buf
}

// NumWalks returns the total number of stored walks (r · n).
func (ix *Index) NumWalks() int {
	if ix.flat != nil {
		return ix.opt.R * ix.numNodes()
	}
	total := 0
	for k := range ix.walks {
		total += len(ix.walks[k])
	}
	return total
}

// Positions returns the total number of stored walk positions across
// all samples, the index-memory proxy the benchmark reports use.
func (ix *Index) Positions() int {
	if ix.flat != nil {
		return len(ix.flat.Nodes)
	}
	total := 0
	for k := range ix.walks {
		for _, w := range ix.walks[k] {
			total += len(w)
		}
	}
	return total
}

// Graph returns the index's private graph copy (tests use it to verify
// the update path keeps it in sync). On a borrowed index this
// materializes the mutable form first.
func (ix *Index) Graph() *graph.DiGraph {
	ix.materialize()
	return ix.g
}
