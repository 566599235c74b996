package engine

import (
	"context"
	"fmt"
	"io"
	"sort"

	"crashsim/internal/graph"
	"crashsim/internal/store"
)

// persisted maps each backend whose index a snapshot can carry to the
// operations that persisting it takes. The commands' save and load
// paths go through BuildIndex and ImportIndex, and New runs check on
// a preloaded index, so no caller keeps its own per-backend switch.
var persisted = map[string]struct {
	// build builds the index New would build over g for cfg, hands it
	// to cfg as the preloaded index and stores its export in snap.
	build func(ctx context.Context, g *graph.Graph, cfg *Config, snap *store.Snapshot) error
	// load imports the index from mp over g and hands it to cfg. With
	// adopt set, cfg first takes the build options the index records.
	load func(mp *store.Mapped, g *graph.Graph, cfg *Config, adopt bool) (io.Closer, error)
	// check reports why cfg's preloaded index may not serve g for cfg:
	// it was built on another graph or with other build options.
	check func(g *graph.Graph, cfg Config) error
}{
	"sling": {
		build: func(ctx context.Context, g *graph.Graph, cfg *Config, snap *store.Snapshot) error {
			ix, err := BuildSlingIndex(ctx, g, *cfg)
			if err != nil {
				return err
			}
			f := ix.Export()
			cfg.SlingIndex, snap.Sling = ix, &f
			return nil
		},
		load: func(mp *store.Mapped, g *graph.Graph, cfg *Config, adopt bool) (io.Closer, error) {
			ix, err := mp.ImportSling(g)
			if err != nil {
				return nil, err
			}
			if adopt {
				o := ix.Options()
				cfg.C, cfg.Eps, cfg.Seed, cfg.SlingDSamples = o.C, o.Eps, o.Seed, o.DSamples
			}
			cfg.SlingIndex = ix
			return ix, nil
		},
		check: func(g *graph.Graph, cfg Config) error {
			ix := cfg.SlingIndex
			want, have := cfg.SlingOptions().WithDefaults(), ix.Options()
			want.Workers, have.Workers = 0, 0
			return checkPreload("sling", ix.Graph().Version(), g, have, want)
		},
	},
	"reads": {
		build: func(ctx context.Context, g *graph.Graph, cfg *Config, snap *store.Snapshot) error {
			ix, err := BuildReadsIndex(ctx, g, *cfg)
			if err != nil {
				return err
			}
			f := ix.Export()
			cfg.ReadsIndex, snap.Reads = ix, &f
			return nil
		},
		load: func(mp *store.Mapped, g *graph.Graph, cfg *Config, adopt bool) (io.Closer, error) {
			ix, err := mp.ImportReads(g)
			if err != nil {
				return nil, err
			}
			if adopt {
				o := ix.Options()
				cfg.C, cfg.Seed, cfg.ReadsR, cfg.ReadsRQ = o.C, o.Seed, o.R, o.RQ
			}
			cfg.ReadsIndex = ix
			return ix, nil
		},
		check: func(g *graph.Graph, cfg Config) error {
			ix := cfg.ReadsIndex
			want, have := cfg.ReadsOptions().WithDefaults(), ix.Options()
			want.Workers, have.Workers = 0, 0
			return checkPreload("reads", ix.SourceVersion(), g, have, want)
		},
	},
	"prsim": {
		build: func(ctx context.Context, g *graph.Graph, cfg *Config, snap *store.Snapshot) error {
			ix, err := BuildPRSimIndex(ctx, g, *cfg)
			if err != nil {
				return err
			}
			f := ix.Export()
			cfg.PRSimIndex, snap.PRSim = ix, &f
			return nil
		},
		load: func(mp *store.Mapped, g *graph.Graph, cfg *Config, adopt bool) (io.Closer, error) {
			ix, err := mp.ImportPRSim(g)
			if err != nil {
				return nil, err
			}
			if adopt {
				o := ix.Options()
				cfg.C, cfg.Eps, cfg.Delta, cfg.Seed = o.C, o.Eps, o.Delta, o.Seed
				cfg.Iterations, cfg.HubFraction, cfg.PRSimDSamples = o.Iterations, o.HubFraction, o.DSamples
			}
			cfg.PRSimIndex = ix
			return ix, nil
		},
		check: func(g *graph.Graph, cfg Config) error {
			ix := cfg.PRSimIndex
			want, have := cfg.PRSimOptions().WithDefaults(), ix.Options()
			want.Workers, have.Workers = 0, 0
			return checkPreload("prsim", ix.Graph().Version(), g, have, want)
		},
	},
}

// checkPreload is the preload compatibility check: an index built on
// graph version built with options have may serve g for a Config
// asking for want only if both match. Callers zero Workers first, a
// runtime knob with no effect on the built index.
func checkPreload[O comparable](name string, built uint64, g *graph.Graph, have, want O) error {
	if built != g.Version() {
		return fmt.Errorf("preloaded %s index built on graph %#x, serving graph is %#x", name, built, g.Version())
	}
	if have != want {
		return fmt.Errorf("preloaded %s index built with %+v, config asks for %+v", name, have, want)
	}
	return nil
}

// IndexBackends returns the backends whose index a snapshot can carry,
// sorted.
func IndexBackends() []string {
	out := make([]string, 0, len(persisted))
	for name := range persisted {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// BuildIndex builds the named backend's index over g exactly as New
// would for cfg, hands it to cfg as the preloaded index, so a later New
// serves it without a second build, and stores its export in snap for
// store.Write.
func BuildIndex(ctx context.Context, name string, g *graph.Graph, cfg *Config, snap *store.Snapshot) error {
	ops, ok := persisted[name]
	if !ok {
		return fmt.Errorf("engine: backend %q persists no index (have %v)", name, IndexBackends())
	}
	return ops.build(orBackground(ctx), g, cfg, snap)
}

// ImportIndex imports the named backend's index from mp over g and
// hands it to cfg, after the check New runs on a preloaded index: it
// must have been built on g with the build options cfg implies
// (Workers aside). On a mismatch the index is closed, cfg is left as
// it was and the error says what differs, so a caller can rebuild
// instead. With adopt set, cfg first takes the build options the
// snapshot records, and only the graph is checked: the path for a
// caller that answers with whatever the snapshot holds.
func ImportIndex(mp *store.Mapped, name string, g *graph.Graph, cfg *Config, adopt bool) error {
	ops, ok := persisted[name]
	if !ok {
		return fmt.Errorf("engine: backend %q persists no index (have %v)", name, IndexBackends())
	}
	c := *cfg
	ix, err := ops.load(mp, g, &c, adopt)
	if err != nil {
		return err
	}
	if err := ops.check(g, c); err != nil {
		ix.Close()
		return err
	}
	*cfg = c
	return nil
}
