package prsim

import (
	"fmt"
	"math"
	"slices"

	"crashsim/internal/graph"
	"crashsim/internal/rng"
)

// Skeleton is the pre-compile, map-based PRSim implementation, kept as
// the differential oracle for the flat Index: per-node tables are
// [][]skelEntry levels built through maps, hub selection sorts all n
// nodes, and the per-query accumulator is a Go map. It is NOT safe for
// concurrent use — exactly the limitation the compiled Index exists to
// remove — and produces scores bit-identical to Index.SingleSourceCtx
// by construction (pinned by TestCompiledMatchesSkeleton).
type Skeleton struct {
	g      *graph.Graph
	opt    Options
	nq     int
	tables []skelTable
	built  []bool
	d      []float64
	dKnown []bool
	hubs   int
}

// skelEntry is one stored (origin, probability) pair within a level.
type skelEntry struct {
	origin graph.NodeID
	prob   float64
}

// skelTable is one node's reverse-push result, one slice per step.
type skelTable struct {
	levels [][]skelEntry
}

// NewSkeleton builds the map-based reference index: hubs chosen by a
// full sort over all n nodes, tables built serially.
func NewSkeleton(g *graph.Graph, opt Options) (*Skeleton, error) {
	o := opt.withDefaults()
	if err := o.Validate(); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	s := &Skeleton{
		g:      g,
		opt:    o,
		tables: make([]skelTable, n),
		built:  make([]bool, n),
		d:      make([]float64, n),
		dKnown: make([]bool, n),
	}
	if o.Iterations > 0 {
		s.nq = o.Iterations
	} else {
		s.nq = int(math.Ceil(3 * o.C / (o.Eps * o.Eps) * math.Log(float64(n)/o.Delta)))
	}
	s.hubs = int(o.HubFraction * float64(n))
	if s.hubs > 0 {
		order := make([]graph.NodeID, n)
		for v := range order {
			order[v] = graph.NodeID(v)
		}
		slices.SortFunc(order, func(a, b graph.NodeID) int {
			da, db := g.InDegree(a), g.InDegree(b)
			if da != db {
				return db - da // in-degree descending
			}
			return int(a - b) // ties by id ascending
		})
		for _, w := range order[:s.hubs] {
			s.ensureTable(w)
			s.ensureD(w)
		}
	}
	return s, nil
}

// HubCount reports how many nodes were indexed eagerly.
func (s *Skeleton) HubCount() int { return s.hubs }

func (s *Skeleton) ensureTable(w graph.NodeID) skelTable {
	if s.built[w] {
		return s.tables[w]
	}
	sc := math.Sqrt(s.opt.C)
	cur := map[graph.NodeID]float64{w: 1}
	var tb skelTable
	var order []graph.NodeID
	for step := 1; step <= s.opt.MaxDepth; step++ {
		next := make(map[graph.NodeID]float64, len(cur)*2)
		order = order[:0]
		for x := range cur {
			order = append(order, x)
		}
		slices.Sort(order)
		for _, x := range order {
			px := cur[x]
			for _, y := range s.g.Out(x) {
				p := px * sc / float64(s.g.InDegree(y))
				if p < s.opt.Prune {
					continue
				}
				next[y] += p
			}
		}
		if len(next) == 0 {
			break
		}
		order = order[:0]
		for x := range next {
			order = append(order, x)
		}
		slices.Sort(order)
		level := make([]skelEntry, 0, len(order))
		for _, v := range order {
			level = append(level, skelEntry{origin: v, prob: next[v]})
		}
		tb.levels = append(tb.levels, level)
		cur = next
	}
	s.tables[w] = tb
	s.built[w] = true
	return tb
}

func (s *Skeleton) ensureD(w graph.NodeID) float64 {
	if s.dKnown[w] {
		return s.d[w]
	}
	sc := math.Sqrt(s.opt.C)
	r := rng.Split(s.opt.Seed^0x5157, uint64(w))
	never := 0
	for k := 0; k < s.opt.DSamples; k++ {
		a, b := w, w
		met := false
		for t := 1; t <= s.opt.MaxDepth; t++ {
			if r.Float64() >= sc || r.Float64() >= sc {
				break
			}
			ia, ib := s.g.In(a), s.g.In(b)
			if len(ia) == 0 || len(ib) == 0 {
				break
			}
			a = ia[r.IntN(len(ia))]
			b = ib[r.IntN(len(ib))]
			if a == b {
				met = true
				break
			}
		}
		if !met {
			never++
		}
	}
	s.d[w] = float64(never) / float64(s.opt.DSamples)
	s.dKnown[w] = true
	return s.d[w]
}

// SingleSource estimates sim(u, ·) through the map-based path.
func (s *Skeleton) SingleSource(u graph.NodeID) (map[graph.NodeID]float64, error) {
	n := s.g.NumNodes()
	if u < 0 || int(u) >= n {
		return nil, fmt.Errorf("prsim: source %d out of range for n=%d", u, n)
	}
	sc := math.Sqrt(s.opt.C)
	r := rng.Split(s.opt.Seed, uint64(u))
	scores := make(map[graph.NodeID]float64, 64)
	for k := 0; k < s.nq; k++ {
		cur := u
		for step := 1; step <= s.opt.MaxDepth; step++ {
			if r.Float64() >= sc {
				break
			}
			in := s.g.In(cur)
			if len(in) == 0 {
				break
			}
			cur = in[r.IntN(len(in))]
			tb := s.ensureTable(cur)
			if step > len(tb.levels) || len(tb.levels[step-1]) == 0 {
				continue
			}
			dw := s.ensureD(cur)
			for _, e := range tb.levels[step-1] {
				scores[e.origin] += e.prob * dw
			}
		}
	}
	inv := 1 / float64(s.nq)
	for v := range scores {
		scores[v] *= inv
	}
	scores[u] = 1
	return scores, nil
}
