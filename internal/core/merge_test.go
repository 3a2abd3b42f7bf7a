package core

import (
	"math"
	"strings"
	"testing"

	"sketchtree/internal/tree"
)

func mergeConfig() Config {
	cfg := testConfig()
	cfg.TopK = 0
	cfg.BuildSummary = true
	return cfg
}

// Sharded ingestion then merge must be bit-identical to single-engine
// ingestion: same seeds → the sketches are linear, so counters add.
func TestMergeEqualsSingleEngine(t *testing.T) {
	whole := mustEngine(t, mergeConfig())
	a := mustEngine(t, mergeConfig())
	b := mustEngine(t, mergeConfig())
	shard1 := []*tree.Tree{
		tree.NewTree(tree.T("A", tree.T("B"), tree.T("C"))),
		tree.NewTree(tree.T("A", tree.T("B"))),
	}
	shard2 := []*tree.Tree{
		tree.NewTree(tree.T("A", tree.T("C"), tree.T("B"))),
		tree.NewTree(tree.T("X", tree.T("Y", tree.T("Z")))),
	}
	for _, tr := range shard1 {
		whole.AddTree(tr)
		a.AddTree(tr)
	}
	for _, tr := range shard2 {
		whole.AddTree(tr)
		b.AddTree(tr)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	for _, q := range []*tree.Node{
		tree.T("A", tree.T("B")),
		tree.T("X", tree.T("Y")),
		tree.T("A", tree.T("B"), tree.T("C")),
	} {
		want, _ := whole.EstimateOrdered(q)
		got, _ := a.EstimateOrdered(q)
		if got != want {
			t.Errorf("merged estimate of %s = %v, whole-stream %v", q, got, want)
		}
	}
	if a.TreesProcessed() != whole.TreesProcessed() {
		t.Error("tree counters not merged")
	}
	if a.PatternsProcessed() != whole.PatternsProcessed() {
		t.Error("pattern counters not merged")
	}
	// Exact counters merged.
	q := tree.T("A", tree.T("B"))
	if a.Exact().Count(a.PatternValue(q)) != whole.Exact().Count(whole.PatternValue(q)) {
		t.Error("exact counters not merged")
	}
	// Summaries merged: the X path came from shard 2.
	if a.Summary().ChildLabels([]string{"X", "Y"}) == nil {
		t.Error("summary paths not merged")
	}
}

func TestMergeValidation(t *testing.T) {
	a := mustEngine(t, mergeConfig())
	if err := a.Merge(nil); err == nil {
		t.Error("nil operand must fail")
	}
	// Different seed.
	cfg := mergeConfig()
	cfg.Seed = 777
	b := mustEngine(t, cfg)
	if err := a.Merge(b); err == nil {
		t.Error("different seeds must fail")
	}
	// Different s1.
	cfg = mergeConfig()
	cfg.S1 = 7
	c := mustEngine(t, cfg)
	if err := a.Merge(c); err == nil {
		t.Error("different dimensions must fail")
	}
	// Top-k engines.
	cfg = mergeConfig()
	cfg.TopK = 5
	d := mustEngine(t, cfg)
	if err := d.Merge(d); err == nil {
		t.Error("top-k engines must refuse to merge")
	}
	// Exact-tracking mismatch.
	cfg = mergeConfig()
	cfg.TrackExact = false
	e2 := mustEngine(t, cfg)
	_ = e2
	if err := a.Merge(e2); err == nil {
		t.Error("exact-tracking mismatch must fail")
	}
	// Summary mismatch.
	cfg = mergeConfig()
	cfg.BuildSummary = false
	f := mustEngine(t, cfg)
	if err := a.Merge(f); err == nil {
		t.Error("summary mismatch must fail")
	}
}

func TestUpperBoundFallsBackWithinK(t *testing.T) {
	e := mustEngine(t, testConfig())
	figure1Stream(t, e)
	q := tree.T("A", tree.T("B"))
	want, _ := e.EstimateOrdered(q)
	got, err := e.EstimateOrderedUpperBound(q)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("within-k upper bound %v != estimate %v", got, want)
	}
}

func TestUpperBoundForOversizedPattern(t *testing.T) {
	cfg := testConfig()
	cfg.MaxPatternEdges = 2
	cfg.S1 = 150
	e := mustEngine(t, cfg)
	// Stream where the 4-edge chain A/B/C/D/E occurs 20 times.
	big := tree.NewTree(tree.T("A", tree.T("B", tree.T("C", tree.T("D", tree.T("E"))))))
	for i := 0; i < 20; i++ {
		e.AddTree(big)
	}
	q := tree.T("A", tree.T("B", tree.T("C", tree.T("D", tree.T("E")))))
	got, err := e.EstimateOrderedUpperBound(q)
	if err != nil {
		t.Fatal(err)
	}
	// True count is 20; the bound must not be (meaningfully) below it,
	// and on this chain stream every 2-edge sub-pattern occurs exactly
	// 20 times, so the bound should be ≈ 20, i.e. tight.
	if got < 20-6 {
		t.Errorf("upper bound %v below true count 20", got)
	}
	if got > 20+10 {
		t.Errorf("upper bound %v far above tight value 20", got)
	}
	// Pattern absent from the stream: the bound should be near zero.
	absent := tree.T("Z", tree.T("Y", tree.T("X", tree.T("W", tree.T("V")))))
	got, err = e.EstimateOrderedUpperBound(absent)
	if err != nil {
		t.Fatal(err)
	}
	if got > 8 {
		t.Errorf("bound for absent pattern = %v, want ≈ 0", got)
	}
}

func TestUpperBoundValidation(t *testing.T) {
	e := mustEngine(t, testConfig())
	if _, err := e.EstimateOrderedUpperBound(nil); err == nil {
		t.Error("nil must fail")
	}
	if _, err := e.EstimateOrderedUpperBound(tree.T("A")); err == nil {
		t.Error("zero-edge pattern must fail")
	}
}

func TestTruncations(t *testing.T) {
	q := tree.T("A",
		tree.T("B", tree.T("D"), tree.T("E")),
		tree.T("C"))
	bfs := truncateBFS(q, 2)
	if bfs.String() != "(A (B) (C))" {
		t.Errorf("BFS truncation = %s", bfs)
	}
	dfs := truncateDFS(q, 2)
	if dfs.String() != "(A (B (D)))" {
		t.Errorf("DFS truncation = %s", dfs)
	}
	// Truncating to at least the size keeps the pattern whole.
	if got := truncateBFS(q, 10); !tree.Equal(got, q) {
		t.Errorf("over-budget BFS truncation altered pattern: %s", got)
	}
	if got := truncateDFS(q, 10); !tree.Equal(got, q) {
		t.Errorf("over-budget DFS truncation altered pattern: %s", got)
	}
}

// Property-style check: the upper bound is never meaningfully below
// the plain estimate... for oversized patterns we compare against the
// engine's exact count instead.
func TestUpperBoundDominatesExactCount(t *testing.T) {
	cfg := testConfig()
	cfg.MaxPatternEdges = 2
	cfg.S1 = 150
	e := mustEngine(t, cfg)
	// Mixed stream.
	trees := []*tree.Tree{
		tree.NewTree(tree.T("A", tree.T("B", tree.T("C", tree.T("D"))))),
		tree.NewTree(tree.T("A", tree.T("B", tree.T("C")))),
		tree.NewTree(tree.T("A", tree.T("B"), tree.T("C", tree.T("D")))),
	}
	for _, tr := range trees {
		for i := 0; i < 10; i++ {
			e.AddTree(tr)
		}
	}
	// 3-edge pattern occurring 10 times (first tree only).
	q := tree.T("A", tree.T("B", tree.T("C", tree.T("D"))))
	got, err := e.EstimateOrderedUpperBound(q)
	if err != nil {
		t.Fatal(err)
	}
	if got < 10-5 {
		t.Errorf("upper bound %v below exact count 10", got)
	}
	if math.IsNaN(got) {
		t.Error("NaN bound")
	}
}

func TestAlternations(t *testing.T) {
	// One node with three alternatives.
	got, err := Alternations(tree.T("VBD|VBP|VBZ"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d expansions, want 3", len(got))
	}
	// Alternatives at two levels multiply: (A|B)(C|D) → 4.
	got, err = Alternations(tree.T("A|B", tree.T("C|D")), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("got %d expansions, want 4", len(got))
	}
	// Duplicate alternatives collapse.
	got, err = Alternations(tree.T("A|A", tree.T("B")), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("A|A must deduplicate: %d", len(got))
	}
	// Plain patterns pass through unchanged.
	got, err = Alternations(tree.T("A", tree.T("B")), 0)
	if err != nil || len(got) != 1 || got[0].String() != "(A (B))" {
		t.Errorf("plain pattern: %v, %v", got, err)
	}
	if _, err := Alternations(nil, 0); err == nil {
		t.Error("nil must fail")
	}
	// Cap.
	wide := tree.T("A|B|C|D", tree.T("E|F|G|H"), tree.T("I|J|K|L"))
	if _, err := Alternations(wide, 10); err == nil {
		t.Error("expansion beyond cap must fail")
	}
}

// Example 5 of the paper: counting who-question structures via a
// VBD|VBZ disjunction equals the sum of the plain counts.
func TestEstimateAlternationsExample5(t *testing.T) {
	e := mustEngine(t, testConfig())
	stream := []*tree.Tree{
		tree.NewTree(tree.T("VP", tree.T("VBD"), tree.T("NP"))),
		tree.NewTree(tree.T("VP", tree.T("VBD"), tree.T("NP"))),
		tree.NewTree(tree.T("VP", tree.T("VBZ"), tree.T("NP"))),
		tree.NewTree(tree.T("VP", tree.T("MD"), tree.T("NP"))),
	}
	for _, tr := range stream {
		if err := e.AddTree(tr); err != nil {
			t.Fatal(err)
		}
	}
	got, err := e.EstimateAlternations(tree.T("VP", tree.T("VBD|VBZ"), tree.T("NP")))
	if err != nil {
		t.Fatal(err)
	}
	// Exact total: 2 (VBD) + 1 (VBZ) = 3; MD excluded.
	if math.Abs(got-3) > 2 {
		t.Errorf("OR estimate = %v, want ≈ 3", got)
	}
	// Single-alternative falls back to the plain estimator exactly.
	plain, _ := e.EstimateOrdered(tree.T("VP", tree.T("MD"), tree.T("NP")))
	alt, err := e.EstimateAlternations(tree.T("VP", tree.T("MD"), tree.T("NP")))
	if err != nil || alt != plain {
		t.Errorf("single alternative must match plain: %v vs %v (%v)", alt, plain, err)
	}
}

// TestMergeRejectsTamperedSeedWords reaches the ξ-seed guard: the
// operand carries the same Config (Seed included) and modulus, so only
// the seed-word comparison can tell that one generator differs.
func TestMergeRejectsTamperedSeedWords(t *testing.T) {
	a := mustEngine(t, mergeConfig())
	figure1Stream(t, a)
	sn := decodeSnapshot(t, a)
	w := sn.SeedWords[len(sn.SeedWords)/2]
	w[len(w)-1] ^= 1 // still inside the field, so Restore accepts it
	b, err := Restore(encodeSnapshot(t, sn))
	if err != nil {
		t.Fatalf("restoring the tampered snapshot: %v", err)
	}
	if err := a.Merge(b); err == nil || !strings.Contains(err.Error(), "seeds differ") {
		t.Fatalf("Merge of a tampered seed set: err = %v, want a seed mismatch", err)
	}
	// The untampered bytes still merge.
	c, err := Restore(encodeSnapshot(t, decodeSnapshot(t, a)))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(c); err != nil {
		t.Fatalf("control merge: %v", err)
	}
}
