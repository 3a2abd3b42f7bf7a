package window

import (
	"bytes"
	"testing"
	"time"

	"sketchtree/internal/core"
	"sketchtree/internal/tree"
)

func windowConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.MaxPatternEdges = 3
	cfg.S1 = 40
	cfg.S2 = 5
	cfg.VirtualStreams = 23
	cfg.TopK = 0
	cfg.TrackExact = false
	cfg.Seed = 4242
	return cfg
}

func mustTemplate(t testing.TB, cfg core.Config) *core.Engine {
	t.Helper()
	e, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// doc generates a small labeled tree with some variety by index.
func doc(i int) *tree.Tree {
	switch i % 5 {
	case 0:
		return tree.NewTree(tree.T("a", tree.T("b"), tree.T("c")))
	case 1:
		return tree.NewTree(tree.T("a", tree.T("b"), tree.T("b")))
	case 2:
		return tree.NewTree(tree.T("a", tree.T("c"), tree.T("b")))
	case 3:
		return tree.NewTree(tree.T("a", tree.T("b", tree.T("d"))))
	default:
		return tree.NewTree(tree.T("d", tree.T("a", tree.T("b"))))
	}
}

// fakeClock is a deterministic injected clock advanced by the test.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time       { return c.now }
func (c *fakeClock) Tick(d time.Duration) { c.now = c.now.Add(d) }
func newFakeClock() *fakeClock            { return &fakeClock{now: time.Unix(1_700_000_000, 0)} }

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Policy{Slices: 2}, nil); err == nil {
		t.Error("nil template must fail")
	}

	cfg := windowConfig()
	cfg.TopK = 8
	if _, err := New(mustTemplate(t, cfg), Policy{Slices: 2}, nil); err == nil {
		t.Error("TopK != 0 must fail: top-k synopses cannot be merged")
	}

	cfg = windowConfig()
	cfg.TrackExact = true
	if _, err := New(mustTemplate(t, cfg), Policy{Slices: 2}, nil); err == nil {
		t.Error("TrackExact must fail: the exact baseline cannot expire a slice")
	}

	audited := mustTemplate(t, windowConfig())
	if err := audited.EnableAudit(4); err != nil {
		t.Fatal(err)
	}
	if _, err := New(audited, Policy{Slices: 2}, nil); err == nil {
		t.Error("attached auditor must fail")
	}

	loaded := mustTemplate(t, windowConfig())
	if err := loaded.AddTree(doc(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := New(loaded, Policy{Slices: 2}, nil); err == nil {
		t.Error("non-empty template must fail")
	}

	tpl := mustTemplate(t, windowConfig())
	for _, pol := range []Policy{
		{Slices: 0},
		{Slices: -1},
		{Slices: 2, SliceTrees: -1},
		{Slices: 2, SliceDur: -time.Second},
	} {
		if _, err := New(tpl, pol, nil); err == nil {
			t.Errorf("policy %+v must fail", pol)
		}
	}
}

// The headline property at unit scope: after count-cadence advances
// and expiries, the merged window is bit-identical — synopsis bytes
// and float64 estimates — to a fresh engine fed only the live-slice
// documents.
func TestMergedBitIdenticalToFresh(t *testing.T) {
	cfg := windowConfig()
	w, err := New(mustTemplate(t, cfg), Policy{
		Slices:            3,
		SliceTrees:        4,
		RefreshEveryTrees: -1, // rebuilds only on advance; Refresh below
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Mirror the slice ring as document index lists, replicating the
	// advance rule: a slice seals at SliceTrees documents, the ring
	// keeps the newest 3 slices.
	live := [][]int{{}}
	const total = 23
	for i := 0; i < total; i++ {
		if err := w.Add(doc(i)); err != nil {
			t.Fatal(err)
		}
		cur := &live[len(live)-1]
		*cur = append(*cur, i)
		if len(*cur) == 4 {
			live = append(live, []int{})
			if len(live) > 3 {
				live = live[1:]
			}
		}
	}
	if err := w.Refresh(); err != nil {
		t.Fatal(err)
	}

	fresh := mustTemplate(t, cfg)
	var wantTrees int64
	for _, sl := range live {
		for _, i := range sl {
			if err := fresh.AddTree(doc(i)); err != nil {
				t.Fatal(err)
			}
			wantTrees++
		}
	}

	m := w.Publisher().Load()
	if m == nil {
		t.Fatal("no merged state published")
	}
	if m.Trees != wantTrees {
		t.Fatalf("merged covers %d trees, live slices hold %d", m.Trees, wantTrees)
	}
	if got := w.Trees(); got != wantTrees {
		t.Fatalf("Trees() = %d, want %d", got, wantTrees)
	}

	gotBytes, err := w.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := fresh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Errorf("merged synopsis bytes differ from fresh engine (%d vs %d bytes)", len(gotBytes), len(wantBytes))
	}

	for _, q := range []*tree.Node{
		tree.T("a", tree.T("b")),
		tree.T("a", tree.T("b"), tree.T("c")),
		tree.T("b", tree.T("d")),
	} {
		want, err := fresh.EstimateOrdered(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Value.EstimateOrdered(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("EstimateOrdered(%v) = %v, fresh %v", q, got, want)
		}
	}
}

func TestCountCadenceAdvanceAndExpire(t *testing.T) {
	w, err := New(mustTemplate(t, windowConfig()), Policy{Slices: 2, SliceTrees: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ { // 3 full slices: 2 advances keep the ring, 1 expires
		if err := w.Add(doc(i)); err != nil {
			t.Fatal(err)
		}
	}
	ws := w.Status()
	if ws.Advances != 3 {
		t.Errorf("advances = %d, want 3", ws.Advances)
	}
	// Ring capacity 2: the 3rd advance (after doc 9) drops slices.
	if ws.Expires != 2 {
		t.Errorf("expires = %d, want 2", ws.Expires)
	}
	if len(ws.Live) != 2 {
		t.Fatalf("live slices = %d, want 2", len(ws.Live))
	}
	if ws.LiveTrees != 3 { // docs 7..9 in the sealed slice, current empty
		t.Errorf("live trees = %d, want 3", ws.LiveTrees)
	}
	if !ws.Live[len(ws.Live)-1].Current {
		t.Error("last slice must be marked current")
	}
}

func TestClockCadenceAdvance(t *testing.T) {
	clk := newFakeClock()
	w, err := New(mustTemplate(t, windowConfig()), Policy{
		Slices:   3,
		SliceDur: time.Minute,
	}, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := w.Add(doc(i)); err != nil {
			t.Fatal(err)
		}
	}
	// One slice duration elapses: the next mutator advances first, so
	// the 4 docs seal into the previous slice.
	clk.Tick(time.Minute)
	if err := w.Add(doc(4)); err != nil {
		t.Fatal(err)
	}
	ws := w.Status()
	if ws.Advances != 1 {
		t.Fatalf("advances = %d, want 1", ws.Advances)
	}
	if len(ws.Live) != 2 || ws.Live[0].Trees != 4 || ws.Live[1].Trees != 1 {
		t.Fatalf("unexpected ring shape: %+v", ws.Live)
	}

	// Two more durations elapse with no traffic: AdvanceDue (the ticker
	// path) must expire slices on its own.
	clk.Tick(2 * time.Minute)
	if err := w.AdvanceDue(); err != nil {
		t.Fatal(err)
	}
	ws = w.Status()
	if ws.Advances != 3 {
		t.Errorf("advances = %d, want 3", ws.Advances)
	}
	// The second of those advances filled the 3-slice ring and dropped
	// the first slice — the 4 early docs expired; only doc 4 remains.
	if got := w.Trees(); got != 1 {
		t.Errorf("live trees = %d, want 1", got)
	}
	if ws.Expires != 1 {
		t.Errorf("expires = %d, want 1", ws.Expires)
	}

	// A long idle gap (every live slice expired) resets to one fresh
	// empty slice instead of rotating Slices more times.
	clk.Tick(time.Hour)
	if err := w.AdvanceDue(); err != nil {
		t.Fatal(err)
	}
	ws = w.Status()
	if len(ws.Live) != 1 || ws.LiveTrees != 0 {
		t.Fatalf("idle catch-up must reset to one empty slice, got %+v", ws.Live)
	}
	if w.Publisher().Load().Trees != 0 {
		t.Errorf("merged after full expiry covers %d trees, want 0", w.Publisher().Load().Trees)
	}
}

func TestRemoveTargetsCurrentSlice(t *testing.T) {
	w, err := New(mustTemplate(t, windowConfig()), Policy{Slices: 2, SliceTrees: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add(doc(0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(doc(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Remove(doc(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := w.Trees(); got != 1 {
		t.Errorf("live trees = %d, want 1", got)
	}

	fresh := mustTemplate(t, windowConfig())
	if err := fresh.AddTree(doc(0)); err != nil {
		t.Fatal(err)
	}
	got, _ := w.MarshalBinary()
	want, _ := fresh.MarshalBinary()
	if !bytes.Equal(got, want) {
		t.Error("add+remove in one slice must be bit-identical to never adding")
	}
}

func TestAbsorbMergesIntoCurrentSlice(t *testing.T) {
	cfg := windowConfig()
	w, err := New(mustTemplate(t, cfg), Policy{Slices: 2, SliceTrees: 100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	side := mustTemplate(t, cfg)
	for i := 0; i < 4; i++ {
		if err := side.AddTree(doc(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Absorb(side); err != nil {
		t.Fatal(err)
	}
	if err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := w.Trees(); got != 4 {
		t.Errorf("live trees after absorb = %d, want 4", got)
	}
	got, _ := w.MarshalBinary()
	want, _ := side.MarshalBinary()
	if !bytes.Equal(got, want) {
		t.Error("absorbed window must be bit-identical to the absorbed engine")
	}
}

func TestRebuildGenerationAndCadence(t *testing.T) {
	w, err := New(mustTemplate(t, windowConfig()), Policy{
		Slices:            2,
		SliceTrees:        100,
		RefreshEveryTrees: 2,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g0 := w.Publisher().Load().Seq
	if err := w.Add(doc(0)); err != nil {
		t.Fatal(err)
	}
	if w.Publisher().Load().Seq != g0 {
		t.Error("one update below the cadence must not rebuild")
	}
	if err := w.Add(doc(1)); err != nil {
		t.Fatal(err)
	}
	if w.Publisher().Load().Seq != g0+1 {
		t.Errorf("gen after cadence hit = %d, want %d", w.Publisher().Load().Seq, g0+1)
	}
	if w.Publisher().Load().Trees != 2 {
		t.Errorf("merged trees = %d, want 2", w.Publisher().Load().Trees)
	}

	// The merged engine reports queries through one persistent sink
	// across rebuilds.
	met := w.Metrics()
	if _, err := w.Publisher().Load().Value.EstimateOrdered(tree.T("a", tree.T("b"))); err != nil {
		t.Fatal(err)
	}
	if err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Publisher().Load().Value.EstimateOrdered(tree.T("a", tree.T("b"))); err != nil {
		t.Fatal(err)
	}
	if got := met.Snapshot().Queries.Count; got != 2 {
		t.Errorf("persistent query counter = %d, want 2 (must survive rebuilds)", got)
	}
	if got := w.Stats().Queries.Count; got != 2 {
		t.Errorf("Stats().Queries.Count = %d, want 2", got)
	}
}

func TestStatsCarriesWindowSection(t *testing.T) {
	w, err := New(mustTemplate(t, windowConfig()), Policy{Slices: 4, SliceTrees: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Add(doc(i)); err != nil {
			t.Fatal(err)
		}
	}
	s := w.Stats()
	if s.Window == nil {
		t.Fatal("Stats().Window is nil")
	}
	if s.Window.Slices != 4 || s.Window.SliceTrees != 2 {
		t.Errorf("window policy not reflected: %+v", s.Window)
	}
	if s.Window.LiveTrees != 5 {
		t.Errorf("live trees = %d, want 5", s.Window.LiveTrees)
	}
	var sum int64
	for _, sl := range s.Window.Live {
		if sl.Trees < 0 {
			t.Errorf("negative slice count: %+v", sl)
		}
		sum += sl.Trees
	}
	if sum != s.Window.LiveTrees {
		t.Errorf("LiveTrees %d != Σ slices %d", s.Window.LiveTrees, sum)
	}
	if s.Window.Rebuilds < 1 {
		t.Error("no rebuilds recorded")
	}
}
