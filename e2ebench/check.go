package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"sketchtree"
	"sketchtree/internal/core"
)

// checks is the verdict on one run's outputs, plus the figures the
// reference side produced on the way.
type checks struct {
	problems []string
	ingest   opCount
	query    opCount
	final    opCount

	attempted, failed int

	compared           int // final answers compared with the reference
	ciCovered, ciTotal int
	relErrs            []float64

	ref *reference

	// traced runs only
	rebuildAllocs        float64 // window: per AdvanceWindow/RefreshWindow
	clusterRebuildAllocs float64 // cluster: per restore+merge round
	planHits, planTotal  int64
}

func (c *checks) ok() bool { return len(c.problems) == 0 }

func (c *checks) fail(format string, args ...any) {
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// ciFloor is the least share of with-error answers whose 95% interval
// must hold the exact count: 1 − δ at s2 = 7.
const ciFloor = 0.90

// clusterRounds is how many restore+merge rounds a traced cluster run
// replays over the pulled synopses.
const clusterRounds = 5

// check verifies the run against properties the method must have and
// against computations made apart from the daemons:
//   - every request answered 2xx, every measured answer finite and
//     served from a published state no newer than the feed;
//   - the end provenance covers exactly the documents sent (for the
//     window: exactly the live documents its cadence implies);
//   - the final answers, and the served synopsis bytes, equal those of
//     an engine built here from the same XML documents;
//   - at least ciFloor of the with-error answers' 95% intervals hold
//     the exact count, computed by brute-force matching.
func check(ctx context.Context, w *workload, in *inputs, tr *traffic, fin *final, t *tracer) (*checks, error) {
	c := &checks{}
	pre := int64(in.preloadLen())
	fed := int64(len(tr.feed))

	for _, r := range tr.feed {
		c.ingest.add(r.ok)
	}
	for _, q := range tr.queries {
		c.query.add(q.ok)
		if !q.ok {
			continue
		}
		sent := int64(sort.Search(len(tr.feed), func(i int) bool { return !tr.feed[i].sent.Before(q.done) }))
		switch {
		case !q.finite || !q.snapshot:
			c.fail("query %d: answer not finite or not from a published state", q.idx)
		case w.mode == modeWindow && q.trees != int64(w.liveDocs()):
			c.fail("window query served %d trees, want the %d live documents", q.trees, w.liveDocs())
		case w.mode != modeWindow && q.trees > pre+sent:
			c.fail("query served %d trees, more than the %d sent", q.trees, pre+sent)
		}
	}
	c.final = fin.ops
	c.attempted = c.ingest.attempted + c.query.attempted + c.final.attempted
	c.failed = c.ingest.failed + c.query.failed + c.final.failed
	if c.failed > 0 {
		c.fail("%d requests failed (ingest %d, query %d, final %d)", c.failed, c.ingest.failed, c.query.failed, c.final.failed)
	}
	if !tr.covered {
		c.fail("served state never covered the %d documents sent", fed)
	}
	checkProvenance(c, w, pre, fed, fin)

	var err error
	c.ref, err = buildReference(ctx, w, in, tr, t)
	if err != nil {
		return nil, err
	}
	sp := t.begin("MarshalBinary", t.req(), -1)
	refBytes, err := c.ref.eng.MarshalBinary()
	t.end(sp)
	if err != nil {
		return nil, err
	}
	served := fin.synopses[0]
	if w.mode == modeCluster {
		merged, allocs, err := clusterRebuild(fin.synopses, t)
		if err != nil {
			return nil, err
		}
		c.clusterRebuildAllocs = float64(allocs)
		if t != nil {
			for i := 1; i < clusterRounds; i++ {
				_, allocs, err := clusterRebuild(fin.synopses, t)
				if err != nil {
					return nil, err
				}
				c.clusterRebuildAllocs += float64(allocs)
			}
			c.clusterRebuildAllocs /= clusterRounds
		}
		if served, err = merged.MarshalBinary(); err != nil {
			return nil, err
		}
	}
	if !bytes.Equal(served, refBytes) {
		c.fail("served synopsis (%d bytes) differs from the reference engine's (%d bytes)", len(served), len(refBytes))
	}

	mult := multiplicity(w, in, tr)
	for i := range in.queries {
		q := &in.queries[i]
		if !fin.answered[i] {
			continue
		}
		got := fin.answers[i]
		want, err := answer(c.ref.eng, in, q)
		if err != nil {
			return nil, err
		}
		c.compared++
		if !sameAnswer(got, want) {
			c.fail("query %d (%s): daemon %s, reference %s", i, q.body, fmtAnswer(got), fmtAnswer(want))
		}
		exact := in.exact(q, mult)
		switch {
		case q.kind == "expression":
		case q.withError:
			c.ciTotal++
			if got.CI95 != nil && got.CI95[0] <= exact && exact <= got.CI95[1] {
				c.ciCovered++
			}
		case exact > 0:
			c.relErrs = append(c.relErrs, math.Abs(core.SanityBound(got.Estimate, exact)-exact)/exact)
		}
	}
	if c.ciTotal == 0 || float64(c.ciCovered) < ciFloor*float64(c.ciTotal) {
		c.fail("exact count inside the 95%% interval for %d of %d with-error answers, below %.0f%%", c.ciCovered, c.ciTotal, 100*ciFloor)
	}
	if len(c.relErrs) == 0 {
		c.fail("no query with a positive exact count")
	}

	if t != nil {
		if err := c.traceReplay(w, in, tr, fin, t); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// checkProvenance compares the end provenance with the documents sent.
func checkProvenance(c *checks, w *workload, pre, fed int64, fin *final) {
	var holderTrees int64
	for _, n := range fin.synTrees {
		holderTrees += n
	}
	switch w.mode {
	case modeSnapshot:
		var h healthzBody
		if err := json.Unmarshal(fin.prov, &h); err != nil {
			c.fail("decoding /healthz: %v", err)
			return
		}
		if h.Trees != pre+fed || h.SnapshotTrees != pre+fed || holderTrees != pre+fed {
			c.fail("snapshot provenance: live %d, served %d, synopsis %d; want %d", h.Trees, h.SnapshotTrees, holderTrees, pre+fed)
		}
	case modeWindow:
		var wb windowBody
		if err := json.Unmarshal(fin.prov, &wb); err != nil || wb.Window == nil {
			c.fail("decoding /window: %v", err)
			return
		}
		live := int64(w.liveDocs())
		seals := (pre + fed) / int64(w.winEvery)
		ws := wb.Window
		if ws.LiveTrees != live || ws.MergedTrees != live || ws.Advances != seals || ws.Rebuilds != 1+seals || holderTrees != live {
			c.fail("window provenance: live %d, merged %d, advances %d, rebuilds %d, synopsis %d; want %d live, %d advances, %d rebuilds",
				ws.LiveTrees, ws.MergedTrees, ws.Advances, ws.Rebuilds, holderTrees, live, seals, 1+seals)
		}
	case modeCluster:
		var cb clusterBody
		if err := json.Unmarshal(fin.prov, &cb); err != nil || cb.Merged == nil {
			c.fail("decoding /cluster: %v", err)
			return
		}
		var routed int64
		for _, p := range cb.Pulls {
			routed += p.Routed
		}
		if cb.Merged.Trees != pre+fed || holderTrees != pre+fed || routed != fed {
			c.fail("cluster provenance: merged %d, shards %d, routed %d; want %d merged, %d routed", cb.Merged.Trees, holderTrees, routed, pre+fed, fed)
		}
	}
}

// sameAnswer compares two answers with == on every float64 they carry.
func sameAnswer(a, b queryAnswer) bool {
	if a.Estimate != b.Estimate || (a.StdErr == nil) != (b.StdErr == nil) || (a.CI95 == nil) != (b.CI95 == nil) {
		return false
	}
	if a.StdErr != nil && *a.StdErr != *b.StdErr {
		return false
	}
	return a.CI95 == nil || *a.CI95 == *b.CI95
}

func fmtAnswer(a queryAnswer) string {
	s := fmt.Sprintf("%v", a.Estimate)
	if a.StdErr != nil {
		s += fmt.Sprintf(" ±%v", *a.StdErr)
	}
	if a.CI95 != nil {
		s += fmt.Sprintf(" %v", *a.CI95)
	}
	return s
}

// traceReplay runs the library-level replays of a traced run: the
// measured query sequence against the serving engine, and the
// mode's publish mechanism.
func (c *checks) traceReplay(w *workload, in *inputs, tr *traffic, fin *final, t *tracer) error {
	n := 0
	for _, q := range tr.queries {
		if q.measured {
			n++
		}
	}
	switch w.mode {
	case modeWindow:
		allocs, err := windowReplay(w, in, t)
		if err != nil {
			return err
		}
		c.rebuildAllocs = allocs
	case modeCluster:
		// The coordinator answers from an engine restored afresh each
		// pull round; replay the queries in round-sized runs on fresh
		// restores, so the plan cache restarts as often as it does
		// there.
		per := max(1, int(math.Round(w.queryRate*w.pullEvery.Seconds())))
		for done := 0; done < n; done += per {
			eng, _, err := clusterRebuild(fin.synopses, nil)
			if err != nil {
				return err
			}
			if err := c.queryReplay(eng, in, done, min(per, n-done), t); err != nil {
				return err
			}
		}
		return nil
	}
	// A fresh engine over the same state: the reference's plan cache is
	// already warm from the final comparisons.
	data, err := c.ref.eng.MarshalBinary()
	if err != nil {
		return err
	}
	eng, err := sketchtree.Restore(data)
	if err != nil {
		return err
	}
	return c.queryReplay(eng, in, 0, n, t)
}

// queryReplay asks queries [from, from+n) of the measured sequence on
// eng and adds the engine's plan-cache outcomes.
func (c *checks) queryReplay(eng *sketchtree.SketchTree, in *inputs, from, n int, t *tracer) error {
	before := eng.Stats().Plans
	for i := from; i < from+n; i++ {
		q := &in.queries[i%min(streamQueries, len(in.queries))]
		sp := t.begin(spanName(q), t.req(), -1)
		_, err := answer(eng, in, q)
		t.end(sp)
		if err != nil {
			return err
		}
	}
	after := eng.Stats().Plans
	if before != nil && after != nil {
		c.planHits += after.Hits - before.Hits
		c.planTotal += after.Hits - before.Hits + after.Misses - before.Misses
	}
	return nil
}

// pollAt returns the last successful provenance reading at or before
// at (the first one when none precedes it).
func pollAt(polls []pollRec, at time.Time) (pollRec, bool) {
	var best pollRec
	found := false
	for _, p := range polls {
		if !p.ok {
			continue
		}
		if !found || !p.at.After(at) {
			best, found = p, true
		}
		if p.at.After(at) {
			break
		}
	}
	return best, found
}
