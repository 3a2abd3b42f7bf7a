package core

import (
	"testing"

	"sketchtree/internal/tree"
)

// allocTree is a modest tree with repeated labels, the shape of a
// steady-state stream element.
func allocTree() *tree.Tree {
	return tree.NewTree(tree.T("A",
		tree.T("B", tree.T("C"), tree.T("D")),
		tree.T("B", tree.T("C")),
		tree.T("E", tree.T("B", tree.T("C"), tree.T("D")))))
}

// TestAddTreeZeroAlloc pins the hot-path contract of the speed
// campaign: once warmed up, AddTree performs zero heap allocations per
// tree — the enumerator recycles its slabs, the pattern encoder and ξ
// preparation reuse their buffers, and the batched sketch update walks
// preallocated arrays. Guarded for both top-k settings, since the
// Algorithm 4 path has its own scratch (estimator, eviction prep,
// entry free list).
func TestAddTreeZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		topk int
	}{
		{"TopKDisabled", 0},
		{"TopKEnabled", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.TrackExact = false // the exact shadow's hash map is off-contract
			cfg.TopK = tc.topk
			e := mustEngine(t, cfg)
			tr := allocTree()
			for i := 0; i < 20; i++ { // warm slabs, maps, pools, trackers
				if err := e.AddTree(tr); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(100, func() {
				if err := e.AddTree(tr); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("AddTree allocates %.1f times per tree, want 0", allocs)
			}
		})
	}
}

// TestEstimateOrderedCacheHitZeroAlloc pins the query-side contract: a
// plan-cache hit answers an ordered count with zero allocations (the
// key is built in a pooled buffer, probed by byte slice, and the
// estimator scratch comes from a pool). Top-k is disabled — a tracked
// query value legitimately allocates its compensation vector.
func TestEstimateOrderedCacheHitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-instrumented sync.Pool drops entries at random, so pooled Get may allocate")
	}
	cfg := testConfig()
	cfg.TrackExact = false
	e := mustEngine(t, cfg)
	for i := 0; i < 3; i++ {
		if err := e.AddTree(allocTree()); err != nil {
			t.Fatal(err)
		}
	}
	q := tree.T("A", tree.T("B", tree.T("C")))
	if _, err := e.EstimateOrdered(q); err != nil { // prime the plan cache
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.EstimateOrdered(q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cache-hit EstimateOrdered allocates %.1f times per query, want 0", allocs)
	}
}

// TestMergeZeroAlloc pins the rebuild paths' merge cost: with summary
// and exact tracking off, Merge allocates nothing — the ξ-seed check
// compares generator words in place, whether the operands share one
// seed set (a window slice cloned from its template) or hold equal but
// distinct ones (a cluster shard restored from its bytes).
func TestMergeZeroAlloc(t *testing.T) {
	cfg := testConfig()
	cfg.TrackExact = false
	cfg.BuildSummary = false
	src := mustEngine(t, cfg)
	figure1Stream(t, src)
	data, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		operand func() (*Engine, error)
	}{
		{"SharedSeeds", src.Clone},
		{"RestoredSeeds", func() (*Engine, error) { return Restore(data) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dst, err := src.Clone()
			if err != nil {
				t.Fatal(err)
			}
			o, err := tc.operand()
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "RestoredSeeds" && dst.seeds == o.seeds {
				t.Fatal("restored engine shares the seed set; the case is vacuous")
			}
			allocs := testing.AllocsPerRun(20, func() {
				if err := dst.Merge(o); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("Merge allocates %.1f times per call, want 0", allocs)
			}
		})
	}
}
