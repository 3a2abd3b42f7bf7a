package core

import (
	"bytes"
	"testing"

	"sketchtree/internal/datagen"
	"sketchtree/internal/topk"
	"sketchtree/internal/tree"
)

// cloneConfig exercises every optional subsystem the clone must carry:
// top-k trackers, the structural summary, and the exact baseline.
func cloneConfig() Config {
	cfg := testConfig()
	cfg.TopK = 5
	cfg.BuildSummary = true
	return cfg
}

// snapshotTreebankConfig is the synopsis sketchtreed serves with
// snapshots on TREEBANK-shaped documents: the paper's k, s1, s2 and p
// with top-k 50.
func snapshotTreebankConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxPatternEdges = 4
	cfg.S1, cfg.S2 = 25, 7
	cfg.VirtualStreams = 229
	cfg.TopK = 50
	return cfg
}

func TestCloneBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		feed    func(testing.TB, *Engine)
		queries []*tree.Node
	}{
		{
			name: "figure1",
			cfg:  cloneConfig(),
			feed: figure1Stream,
			queries: []*tree.Node{
				tree.T("A", tree.T("B")),
				tree.T("A", tree.T("B"), tree.T("C")),
				tree.T("A", tree.T("B"), tree.T("B"), tree.T("C")),
			},
		},
		{
			name: "snapshot-treebank",
			cfg:  snapshotTreebankConfig(),
			feed: func(t testing.TB, e *Engine) {
				t.Helper()
				if err := datagen.Treebank(7, 300).ForEach(e.AddTree); err != nil {
					t.Fatal(err)
				}
			},
			queries: []*tree.Node{
				tree.T("S", tree.T("NP")),
				tree.T("NP", tree.T("DT"), tree.T("NN")),
				tree.T("S", tree.T("NP", tree.T("DT")), tree.T("VP")),
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := mustEngine(t, tc.cfg)
			tc.feed(t, e)
			c, err := e.Clone()
			if err != nil {
				t.Fatal(err)
			}
			if c.TreesProcessed() != e.TreesProcessed() || c.PatternsProcessed() != e.PatternsProcessed() {
				t.Fatalf("clone counters %d/%d != %d/%d",
					c.TreesProcessed(), c.PatternsProcessed(), e.TreesProcessed(), e.PatternsProcessed())
			}
			for _, q := range tc.queries {
				want, err1 := e.EstimateOrdered(q)
				got, err2 := c.EstimateOrdered(q)
				if err1 != nil || err2 != nil || want != got {
					t.Errorf("%s: ordered clone %v != source %v (errs %v/%v)", q, got, want, err1, err2)
				}
				wu, err1 := e.EstimateUnordered(q)
				gu, err2 := c.EstimateUnordered(q)
				if err1 != nil || err2 != nil || wu != gu {
					t.Errorf("%s: unordered clone %v != source %v (errs %v/%v)", q, gu, wu, err1, err2)
				}
			}
			if w, g := e.EstimateSelfJoinSize(true), c.EstimateSelfJoinSize(true); w != g {
				t.Errorf("self-join clone %v != source %v", g, w)
			}
			wf, gf := e.FrequentPatterns(), c.FrequentPatterns()
			if len(wf) != len(gf) {
				t.Fatalf("clone tracks %d frequent patterns, source %d", len(gf), len(wf))
			}
			for i := range wf {
				if wf[i] != gf[i] {
					t.Errorf("frequent[%d]: clone %+v != source %+v", i, gf[i], wf[i])
				}
			}
			wb, err1 := e.MarshalBinary()
			gb, err2 := c.MarshalBinary()
			if err1 != nil || err2 != nil || !bytes.Equal(wb, gb) {
				t.Errorf("clone serializes to %d bytes unequal to the source's %d (errs %v/%v)", len(gb), len(wb), err1, err2)
			}
		})
	}
}

// TestCloneAllocsIndependentOfTrackedEntries pins the copy-only clone:
// counters go into one slab and each tracker into one entry slab, so
// the allocation count depends on the number of trackers, never on how
// many values they track.
func TestCloneAllocsIndependentOfTrackedEntries(t *testing.T) {
	cfg := snapshotTreebankConfig()
	allocs := func(perTracker int) float64 {
		e := mustEngine(t, cfg)
		for i := range e.trackers {
			entries := make([]topk.ValueFreq, perTracker)
			for j := range entries {
				entries[j] = topk.ValueFreq{Value: uint64(j*cfg.VirtualStreams + i), Freq: int64(j%7 + 1)}
			}
			tr, err := topk.Restore(cfg.TopK, e.streams.Sketch(i), entries)
			if err != nil {
				t.Fatal(err)
			}
			e.trackers[i] = tr
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := e.Clone(); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, full := allocs(1), allocs(cfg.TopK)
	if one != full {
		t.Fatalf("Clone makes %v allocations with one tracked value per tracker, %v with full trackers", one, full)
	}
	t.Logf("Clone makes %v allocations at p=%d, top-k %d", full, cfg.VirtualStreams, cfg.TopK)
}

// TestCloneIsFrozen checks snapshot isolation: updates to the source
// after cloning do not leak into the clone.
func TestCloneIsFrozen(t *testing.T) {
	e := mustEngine(t, cloneConfig())
	figure1Stream(t, e)
	c, err := e.Clone()
	if err != nil {
		t.Fatal(err)
	}
	q := tree.T("A", tree.T("B"))
	before, err := c.EstimateOrdered(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := e.AddTree(tree.NewTree(tree.T("A", tree.T("B")))); err != nil {
			t.Fatal(err)
		}
	}
	after, err := c.EstimateOrdered(q)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("clone answer drifted after source updates: %v -> %v", before, after)
	}
	live, err := e.EstimateOrdered(q)
	if err != nil {
		t.Fatal(err)
	}
	if live == before {
		t.Fatalf("source should have moved past the clone (both %v)", live)
	}
}

// TestCloneSharesMetrics checks queries served from a clone are counted
// in the source engine's observability stats.
func TestCloneSharesMetrics(t *testing.T) {
	e := mustEngine(t, testConfig())
	figure1Stream(t, e)
	c, err := e.Clone()
	if err != nil {
		t.Fatal(err)
	}
	base := e.Stats().Queries.Count
	if _, err := c.EstimateOrdered(tree.T("A", tree.T("B"))); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Queries.Count; got != base+1 {
		t.Fatalf("source query count %d, want %d (clone queries share metrics)", got, base+1)
	}
}

// TestCloneAuditNotCarried checks the exact-shadow auditor stays with
// the live engine.
func TestCloneAuditNotCarried(t *testing.T) {
	e := mustEngine(t, testConfig())
	if err := e.EnableAudit(4); err != nil {
		t.Fatal(err)
	}
	figure1Stream(t, e)
	c, err := e.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if !e.AuditEnabled() {
		t.Fatal("source lost its auditor")
	}
	if c.AuditEnabled() {
		t.Fatal("clone should not carry the auditor")
	}
}
