package engine

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"crashsim/internal/graph"
	"crashsim/internal/obs"
	"crashsim/internal/store"
)

func preloadGraph(t *testing.T) *graph.Graph {
	t.Helper()
	const n = 20
	b := graph.NewBuilder(n, true)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
		if j := (i*5 + 2) % n; j != i {
			b.AddEdge(graph.NodeID(i), graph.NodeID(j))
		}
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func preloadConfig() Config {
	return Config{Seed: 11, SlingDSamples: 16, ReadsR: 8, ReadsRQ: 2, Metrics: obs.NewRegistry()}
}

// TestPreloadedIndexBitIdentical is the end-to-end restart equivalence
// guarantee: for every index-persisting backend, an estimator over an
// index that went through the full snapshot round trip (export, encode,
// decode, import) answers every SingleSource query bit-identically to
// an estimator that just built the index.
func TestPreloadedIndexBitIdentical(t *testing.T) {
	ctx := context.Background()
	g := preloadGraph(t)
	cfg := preloadConfig()

	slIx, err := BuildSlingIndex(ctx, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rdIx, err := BuildReadsIndex(ctx, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prIx, err := BuildPRSimIndex(ctx, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Warm a few tail tables so the exported prsim payload carries lazy
	// entries too, not just the eager hubs.
	if _, err := prIx.SingleSource(0); err != nil {
		t.Fatal(err)
	}
	slP, rdP, prP := slIx.Export(), rdIx.Export(), prIx.Export()
	data, err := store.Encode(&store.Snapshot{Graph: g, Sling: &slP, Reads: &rdP, PRSim: &prP})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := store.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	preCfg := cfg
	if preCfg.SlingIndex, err = snap.ImportSling(g); err != nil {
		t.Fatal(err)
	}
	defer preCfg.SlingIndex.Close()
	if preCfg.ReadsIndex, err = snap.ImportReads(g); err != nil {
		t.Fatal(err)
	}
	defer preCfg.ReadsIndex.Close()
	if preCfg.PRSimIndex, err = snap.ImportPRSim(g); err != nil {
		t.Fatal(err)
	}
	defer preCfg.PRSimIndex.Close()

	for _, name := range []string{"sling", "reads", "prsim"} {
		built, err := New(ctx, name, g, cfg)
		if err != nil {
			t.Fatalf("%s: building fresh: %v", name, err)
		}
		loaded, err := New(ctx, name, g, preCfg)
		if err != nil {
			t.Fatalf("%s: constructing from preloaded index: %v", name, err)
		}
		for u := 0; u < g.NumNodes(); u++ {
			want, err := built.SingleSource(ctx, graph.NodeID(u), nil)
			if err != nil {
				t.Fatal(err)
			}
			have, err := loaded.SingleSource(ctx, graph.NodeID(u), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, have) {
				t.Fatalf("%s: SingleSource(%d) differs between built and loaded index", name, u)
			}
		}
	}
}

// TestPreloadedMappedIndexBitIdentical is the mmap flavour of the
// restart guarantee: estimators over indexes imported from a read-only
// file mapping (store.OpenMapped, arrays aliasing the page cache) must
// answer bit-identically to estimators that built the index in-process.
func TestPreloadedMappedIndexBitIdentical(t *testing.T) {
	ctx := context.Background()
	g := preloadGraph(t)
	cfg := preloadConfig()

	slIx, err := BuildSlingIndex(ctx, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rdIx, err := BuildReadsIndex(ctx, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prIx, err := BuildPRSimIndex(ctx, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prIx.SingleSource(0); err != nil {
		t.Fatal(err)
	}
	slP, rdP, prP := slIx.Export(), rdIx.Export(), prIx.Export()
	path := filepath.Join(t.TempDir(), "engine.snap")
	if err := store.Write(path, &store.Snapshot{Graph: g, Sling: &slP, Reads: &rdP, PRSim: &prP}); err != nil {
		t.Fatal(err)
	}
	for _, verify := range []store.VerifyPolicy{store.VerifyOnLoadSection, store.VerifyEager, store.VerifyNone} {
		t.Run(verify.String(), func(t *testing.T) {
			mp, err := store.OpenMapped(path, store.MapOptions{Verify: verify})
			if err != nil {
				t.Fatal(err)
			}
			defer mp.Close()
			preCfg := cfg
			if preCfg.SlingIndex, err = mp.ImportSling(g); err != nil {
				t.Fatal(err)
			}
			defer preCfg.SlingIndex.Close()
			if preCfg.ReadsIndex, err = mp.ImportReads(g); err != nil {
				t.Fatal(err)
			}
			defer preCfg.ReadsIndex.Close()
			if preCfg.PRSimIndex, err = mp.ImportPRSim(g); err != nil {
				t.Fatal(err)
			}
			defer preCfg.PRSimIndex.Close()
			for _, name := range []string{"sling", "reads", "prsim"} {
				built, err := New(ctx, name, g, cfg)
				if err != nil {
					t.Fatalf("%s: building fresh: %v", name, err)
				}
				mapped, err := New(ctx, name, g, preCfg)
				if err != nil {
					t.Fatalf("%s: constructing from mapped index: %v", name, err)
				}
				for u := 0; u < g.NumNodes(); u++ {
					want, err := built.SingleSource(ctx, graph.NodeID(u), nil)
					if err != nil {
						t.Fatal(err)
					}
					have, err := mapped.SingleSource(ctx, graph.NodeID(u), nil)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(want, have) {
						t.Fatalf("%s: SingleSource(%d) differs between built and mapped index", name, u)
					}
				}
			}
		})
	}
}

func TestPreloadRefusesWrongGraph(t *testing.T) {
	ctx := context.Background()
	g := preloadGraph(t)
	other := graph.NewBuilder(20, true).AddEdge(0, 1).AddEdge(1, 2).MustFreeze()
	cfg := preloadConfig()

	var err error
	if cfg.SlingIndex, err = BuildSlingIndex(ctx, other, cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.ReadsIndex, err = BuildReadsIndex(ctx, other, cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.PRSimIndex, err = BuildPRSimIndex(ctx, other, cfg); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sling", "reads", "prsim"} {
		if _, err := New(ctx, name, g, cfg); err == nil ||
			!strings.Contains(err.Error(), "serving graph") {
			t.Fatalf("%s: New accepted an index built on another graph (err=%v)", name, err)
		}
	}
}

func TestPreloadRefusesWrongOptions(t *testing.T) {
	ctx := context.Background()
	g := preloadGraph(t)
	cfg := preloadConfig()

	var err error
	if cfg.SlingIndex, err = BuildSlingIndex(ctx, g, cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.ReadsIndex, err = BuildReadsIndex(ctx, g, cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.PRSimIndex, err = BuildPRSimIndex(ctx, g, cfg); err != nil {
		t.Fatal(err)
	}
	mismatched := cfg
	mismatched.Seed = 999
	for _, name := range []string{"sling", "reads", "prsim"} {
		if _, err := New(ctx, name, g, mismatched); err == nil ||
			!strings.Contains(err.Error(), "config asks for") {
			t.Fatalf("%s: New accepted an index with mismatched options (err=%v)", name, err)
		}
	}
	// Workers is a runtime knob: changing it must NOT invalidate an index.
	workers := cfg
	workers.Workers = 7
	for _, name := range []string{"sling", "reads", "prsim"} {
		if _, err := New(ctx, name, g, workers); err != nil {
			t.Fatalf("%s: Workers change invalidated a preloaded index: %v", name, err)
		}
	}
}

// TestImportIndexChecksOptions: ImportIndex runs New's preload check,
// so a snapshot built with other options is reported as a mismatch
// before New (a warm restart with changed flags rebuilds instead of
// failing in New) and leaves the config untouched, while the matching
// options import and serve, and adopt takes the snapshot's options.
func TestImportIndexChecksOptions(t *testing.T) {
	ctx := context.Background()
	g := preloadGraph(t)
	cfg := preloadConfig()
	snap := &store.Snapshot{Graph: g}
	for _, name := range IndexBackends() {
		built := cfg
		if err := BuildIndex(ctx, name, g, &built, snap); err != nil {
			t.Fatal(err)
		}
	}
	data, err := store.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := store.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Close()
	for _, name := range IndexBackends() {
		other := cfg
		other.C = 0.5
		if err := ImportIndex(mp, name, g, &other, false); err == nil ||
			!strings.Contains(err.Error(), "config asks for") {
			t.Errorf("%s: import with other options: error %v, want a mismatch", name, err)
		}
		if other.SlingIndex != nil || other.ReadsIndex != nil || other.PRSimIndex != nil {
			t.Errorf("%s: a refused import left an index in the config", name)
		}
		same := cfg
		same.Workers = 3 // a runtime knob, not part of the index identity
		if err := ImportIndex(mp, name, g, &same, false); err != nil {
			t.Fatalf("%s: import with matching options: %v", name, err)
		}
		if _, err := New(ctx, name, g, same); err != nil {
			t.Errorf("%s: New over the imported index: %v", name, err)
		}
		if err := ImportIndex(mp, name, g, &other, true); err != nil || other.C != 0.6 {
			t.Errorf("%s: adopting import: error %v, C %v, want the snapshot's 0.6", name, err, other.C)
		}
	}
	if err := BuildIndex(ctx, "crashsim", g, &cfg, snap); err == nil {
		t.Error("BuildIndex accepted a backend without an index")
	}
}
