package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"

	"sketchtree"
	"sketchtree/internal/obs"
)

// The reference side: engines the benchmark builds in its own process
// from the same XML documents the daemons received, through the
// library's public functions. In a traced run the same calls run with
// the library's stage timers on and a span around each call into a
// layer, which is where the library-level per-layer figures come from.

// engineConfig is the workload's synopsis configuration, as the
// daemons build it from their flags.
func engineConfig(w *workload) sketchtree.Config {
	cfg := sketchtree.DefaultConfig()
	cfg.MaxPatternEdges = w.k
	cfg.S1, cfg.S2 = w.s1, w.s2
	cfg.VirtualStreams = w.p
	cfg.TopK = w.topK
	cfg.Seed = sketchSeed
	return cfg
}

// feedOrder lists the documents the served state covers, in the order
// the reference engine takes them:
//   - snapshot: preload then every fed cycle, in feed order (top-k
//     state depends on order, so this also tests snapshot isolation);
//   - cluster: the same documents in reverse, which tests linearity;
//   - window: only the live suffix of the last cycle.
func feedOrder(w *workload, in *inputs, tr *traffic) []doc {
	switch w.mode {
	case modeWindow:
		return in.cycle[len(in.cycle)-w.liveDocs():]
	case modeCluster:
		var all []doc
		for c := tr.cycles - 1; c >= 0; c-- {
			for i := len(in.cycle) - 1; i >= 0; i-- {
				all = append(all, in.cycle[i])
			}
		}
		for p := len(in.preload) - 1; p >= 0; p-- {
			for i := len(in.preload[p]) - 1; i >= 0; i-- {
				all = append(all, in.preload[p][i])
			}
		}
		return all
	}
	all := append([]doc(nil), in.preload[0]...)
	for c := 0; c < tr.cycles; c++ {
		all = append(all, in.cycle...)
	}
	return all
}

// multiplicity returns how many times the served state covers each
// document of inputs.allDocs.
func multiplicity(w *workload, in *inputs, tr *traffic) []int64 {
	mult := make([]int64, in.preloadLen()+len(in.cycle))
	if w.mode == modeWindow {
		for i := len(mult) - w.liveDocs(); i < len(mult); i++ {
			mult[i] = 1
		}
		return mult
	}
	for i := range mult {
		if i < in.preloadLen() {
			mult[i] = 1
		} else {
			mult[i] = int64(tr.cycles)
		}
	}
	return mult
}

// reference is the outcome of the reference pass.
type reference struct {
	eng       *sketchtree.SketchTree
	docs      int    // documents added
	addAllocs uint64 // heap allocations inside AddTree, all documents
}

// buildReference parses every covered document from its XML bytes and
// adds it to a fresh engine. Parsing runs as its own pass, so the
// allocations counted around the AddTree pass are the engine's alone.
// In a traced snapshot run the replay also freezes the engine at the
// daemon's publish cadence, so the publish cost is measured on the
// state sequence the daemon went through.
func buildReference(ctx context.Context, w *workload, in *inputs, tr *traffic, t *tracer) (*reference, error) {
	eng, err := sketchtree.New(engineConfig(w))
	if err != nil {
		return nil, err
	}
	eng.EnableMetrics(t != nil)
	docs := feedOrder(w, in, tr)
	trees := make([]*sketchtree.Tree, len(docs))
	reqs := make([]int, len(docs))
	for i, d := range docs {
		reqs[i] = t.req()
		sp := t.begin("ParseXML", reqs[i], -1)
		trees[i], err = sketchtree.ParseXML(bytes.NewReader(d.xml))
		t.end(sp)
		if err != nil {
			return nil, fmt.Errorf("reference parse: %w", err)
		}
	}
	preload := len(in.preload[0])
	var a, b runtime.MemStats
	var pubAllocs uint64
	runtime.ReadMemStats(&a)
	for i, tree := range trees {
		if i%256 == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		sp := t.begin("AddTree", reqs[i], -1)
		err := eng.AddTree(tree)
		t.end(sp)
		if err != nil {
			return nil, fmt.Errorf("reference AddTree: %w", err)
		}
		if w.mode == modeSnapshot && t != nil && i >= preload && (i+1-preload)%w.snapEvery == 0 {
			var pa, pb runtime.MemStats
			runtime.ReadMemStats(&pa)
			sp = t.begin("Snapshot", reqs[i], -1)
			_, err = eng.Snapshot()
			t.end(sp)
			runtime.ReadMemStats(&pb)
			pubAllocs += pb.Mallocs - pa.Mallocs
			if err != nil {
				return nil, fmt.Errorf("reference publish: %w", err)
			}
		}
	}
	runtime.ReadMemStats(&b)
	return &reference{eng: eng, docs: len(docs), addAllocs: b.Mallocs - a.Mallocs - pubAllocs}, nil
}

// answer evaluates q on eng the way the daemon's query path does.
func answer(eng *sketchtree.SketchTree, in *inputs, q *query) (queryAnswer, error) {
	var a queryAnswer
	withErr := func(e sketchtree.Estimate, err error) (queryAnswer, error) {
		if err != nil {
			return a, err
		}
		se, ci := e.StdErr, e.CI95
		a.Estimate, a.StdErr, a.CI95 = e.Value, &se, &ci
		return a, nil
	}
	p := in.pats
	var err error
	switch q.kind {
	case "ordered":
		if q.withError {
			return withErr(eng.CountOrderedWithError(p[q.pats[0]]))
		}
		a.Estimate, err = eng.CountOrdered(p[q.pats[0]])
	case "unordered":
		if q.withError {
			return withErr(eng.CountUnorderedWithError(p[q.pats[0]]))
		}
		a.Estimate, err = eng.CountUnordered(p[q.pats[0]])
	case "set":
		var qs []*sketchtree.Node
		for _, i := range q.pats {
			qs = append(qs, p[i])
		}
		if q.withError {
			return withErr(eng.CountOrderedSetWithError(qs))
		}
		a.Estimate, err = eng.CountOrderedSet(qs)
	default:
		l, r := sketchtree.Count(p[q.pats[0]]), sketchtree.Count(p[q.pats[1]])
		e := sketchtree.Add(l, r)
		if q.op == "sub" {
			e = sketchtree.Sub(l, r)
		}
		a.Estimate, err = eng.EstimateExpression(e)
	}
	return a, err
}

// spanName is the library function a query kind calls, the span name
// its replay records.
func spanName(q *query) string {
	switch {
	case q.kind == "expression":
		return "EstimateExpression"
	case q.withError:
		return "CountWithError"
	case q.kind == "ordered":
		return "CountOrdered"
	case q.kind == "unordered":
		return "CountUnordered"
	}
	return "CountOrderedSet"
}

// windowReplay builds the window the daemon serves from: a windowed
// Safe, advanced by hand every winEvery documents, takes the preload
// (which fills the ring, as the daemon's preload does) and then the
// last cycle. Each AdvanceWindow of the cycle (seal plus a merged
// rebuild of the full ring) and a final RefreshWindow are timed. It
// returns the mean allocations per timed rebuild.
func windowReplay(w *workload, in *inputs, t *tracer) (float64, error) {
	s, err := sketchtree.NewSafe(engineConfig(w))
	if err != nil {
		return 0, err
	}
	if err := s.EnableWindow(sketchtree.WindowPolicy{Slices: w.winSlices}); err != nil {
		return 0, err
	}
	defer s.DisableWindow()
	s.EnableMetrics(true)
	var allocs uint64
	rebuilds := 0
	timed := func(name string, fn func() error) error {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		sp := t.begin(name, t.req(), -1)
		err := fn()
		t.end(sp)
		runtime.ReadMemStats(&b)
		allocs += b.Mallocs - a.Mallocs
		rebuilds++
		return err
	}
	feed := func(docs []doc, advance func() error) error {
		for i, d := range docs {
			tree, err := sketchtree.ParseXML(bytes.NewReader(d.xml))
			if err != nil {
				return err
			}
			if err := s.AddTree(tree); err != nil {
				return err
			}
			if (i+1)%w.winEvery == 0 {
				if err := advance(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := feed(in.preload[0], s.AdvanceWindow); err != nil {
		return 0, err
	}
	if err := feed(in.cycle, func() error { return timed("AdvanceWindow", s.AdvanceWindow) }); err != nil {
		return 0, err
	}
	if err := timed("RefreshWindow", s.RefreshWindow); err != nil {
		return 0, err
	}
	return float64(allocs) / float64(rebuilds), nil
}

// clusterRebuild restores every pulled shard synopsis and merges them
// in shard order, as a coordinator pull round does, and returns the
// merged engine and the allocations the round made.
func clusterRebuild(datas [][]byte, t *tracer) (*sketchtree.SketchTree, uint64, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	req := t.req()
	root := t.begin("rebuild", req, -1)
	var merged *sketchtree.SketchTree
	for i, data := range datas {
		sp := t.begin("Restore", req, root)
		st, err := sketchtree.Restore(data)
		t.end(sp)
		if err != nil {
			return nil, 0, fmt.Errorf("restoring shard %d: %w", i, err)
		}
		if merged == nil {
			merged = st
			continue
		}
		sp = t.begin("Merge", req, root)
		err = merged.Merge(st)
		t.end(sp)
		if err != nil {
			return nil, 0, fmt.Errorf("merging shard %d: %w", i, err)
		}
	}
	t.end(root)
	runtime.ReadMemStats(&b)
	return merged, b.Mallocs - a.Mallocs, nil
}

// stageNsPer returns a stage's mean time per operation in ns (0 when
// the stage never ran).
func stageNsPer(s sketchtree.Stats, st obs.Stage) float64 {
	c := s.Stage(st)
	if c.Count == 0 {
		return 0
	}
	return float64(c.Nanos) / float64(c.Count)
}
