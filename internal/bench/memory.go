package bench

import (
	"fmt"
	"time"

	"crashsim/internal/gen"
	"crashsim/internal/prsim"
	"crashsim/internal/reads"
	"crashsim/internal/rng"
	"crashsim/internal/sling"
	"crashsim/internal/tsf"
)

// Memory compares the index footprints of the indexed methods across
// the datasets — the dimension behind the paper's observation that
// SLING's index must be rebuilt on update and READS' update footprint
// grows with the graph (Sections I and IV-A). Entries are the natural
// unit of each index: stored (step, node, prob) triples for SLING,
// stored walk positions for READS, parent slots for TSF, and built
// table entries for PRSim (hubs only — tail tables fill lazily at query
// time). CrashSim and ProbeSim are index-free by construction: zero.
func Memory(cfg Config) (*Report, error) {
	cfg = cfg.WithDefaults()
	rep := &Report{
		Title: "Index footprint: stored entries per method (index-free methods store nothing)",
		Notes: []string{
			fmt.Sprintf("scale=%.3g r=%d d-samples=%d (entries; build time in parentheses)",
				cfg.TemporalScale, cfg.ReadsR, cfg.SlingDSamples),
		},
		Columns: []string{"dataset", "n", "m", "sling", "reads", "tsf", "prsim(5% hubs)"},
	}
	for _, prof := range gen.Profiles() {
		p := prof.Scaled(cfg.TemporalScale)
		seed := rng.SeedString(fmt.Sprintf("memory/%s/%d", p.Name, cfg.Seed))
		g, err := p.Static(seed)
		if err != nil {
			return nil, fmt.Errorf("bench: generating %s: %w", p.Name, err)
		}
		dg := g.Thaw()

		start := time.Now()
		sl, err := sling.Build(g, sling.Options{C: cfg.C, Eps: cfg.Eps, DSamples: cfg.SlingDSamples, Seed: seed})
		if err != nil {
			return nil, err
		}
		slCell := fmt.Sprintf("%d (%v)", sl.DistSize(), time.Since(start).Round(time.Millisecond))

		start = time.Now()
		rd, err := reads.Build(dg, reads.Options{C: cfg.C, R: cfg.ReadsR, Seed: seed + 1})
		if err != nil {
			return nil, err
		}
		rdCell := fmt.Sprintf("%d (%v)", rd.Positions(), time.Since(start).Round(time.Millisecond))

		start = time.Now()
		tf, err := tsf.Build(dg, tsf.Options{C: cfg.C, Rg: cfg.ReadsR, Seed: seed + 2})
		if err != nil {
			return nil, err
		}
		tfCell := fmt.Sprintf("%d (%v)", tf.Slots(), time.Since(start).Round(time.Millisecond))

		start = time.Now()
		pr, err := prsim.Build(g, prsim.Options{
			C: cfg.C, Eps: cfg.Eps, HubFraction: 0.05,
			Iterations: 100, DSamples: cfg.SlingDSamples, Seed: seed + 3,
		})
		if err != nil {
			return nil, err
		}
		prCell := fmt.Sprintf("%d (%v)", pr.IndexEntries(), time.Since(start).Round(time.Millisecond))

		rep.AddRow(p.Name, fmt.Sprintf("%d", g.NumNodes()), fmt.Sprintf("%d", g.NumEdges()),
			slCell, rdCell, tfCell, prCell)
	}
	return rep, nil
}
