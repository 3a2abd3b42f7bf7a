package core

import (
	"fmt"

	"sketchtree/internal/obs"
	"sketchtree/internal/tree"
)

// Merge folds another engine's synopsis into this one, enabling
// parallel ingestion: shard the stream across engines created with the
// same Config (including Seed — the ξ generators and the fingerprint
// modulus must coincide), then merge. Because AMS sketches are linear
// projections, the cell-wise sum of two sketches of disjoint stream
// shards is exactly the sketch of the whole stream; the merged engine
// is indistinguishable from one that processed everything itself.
//
// Engines with top-k tracking cannot be merged: the trackers' deleted
// instances are interleaved with the counters in a way that has no
// well-defined union (restore-all both sides first if merging is
// required). Both operands must have TopK == 0.
func (e *Engine) Merge(o *Engine) error {
	if o == nil {
		return fmt.Errorf("core: nil engine")
	}
	start := e.met.Now() // zero (no clock call) unless timers are on
	if e.cfg.TopK != 0 || o.cfg.TopK != 0 {
		return fmt.Errorf("core: engines with top-k tracking cannot be merged")
	}
	// An auditor's bottom-k sample is drawn over one engine's stream;
	// two samples over disjoint shards have no well-defined union that
	// preserves the exactness invariant.
	if e.auditor != nil || o.auditor != nil {
		return fmt.Errorf("core: engines with an exact-shadow auditor cannot be merged")
	}
	if e.cfg.Seed != o.cfg.Seed {
		return fmt.Errorf("core: merge requires identical seeds (%d vs %d)", e.cfg.Seed, o.cfg.Seed)
	}
	switch {
	case e.cfg.MaxPatternEdges != o.cfg.MaxPatternEdges,
		e.cfg.S1 != o.cfg.S1,
		e.cfg.S2 != o.cfg.S2,
		e.cfg.VirtualStreams != o.cfg.VirtualStreams,
		e.cfg.Independence != o.cfg.Independence,
		e.cfg.FingerprintDegree != o.cfg.FingerprintDegree:
		return fmt.Errorf("core: merge requires identical sketch configurations")
	}
	if e.fp.Modulus() != o.fp.Modulus() {
		return fmt.Errorf("core: fingerprint moduli differ")
	}
	// Guard against seed-word divergence (e.g. one engine restored
	// from a foreign snapshot under the same Config.Seed).
	if !e.seeds.Equal(o.seeds) {
		return fmt.Errorf("core: ξ seeds differ")
	}
	for i := 0; i < e.streams.P(); i++ {
		if err := e.streams.Sketch(i).AddSketch(o.streams.Sketch(i)); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	if err := e.streams.AbsorbItems(o.streams); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if e.sum != nil && o.sum != nil {
		e.sum.Merge(o.sum)
	} else if e.sum != nil && o.sum == nil {
		return fmt.Errorf("core: cannot merge engine without a structural summary into one with")
	}
	if e.truth != nil {
		if o.truth == nil {
			return fmt.Errorf("core: cannot merge engine without exact tracking into one with")
		}
		o.truth.ForEach(func(v uint64, c int64) { e.truth.Add(v, c) })
	}
	e.trees += o.trees
	e.patterns += o.patterns
	// The merged snapshot covers the operand's work too: its counters
	// and stage timings fold in, and the merge itself is timed. Note
	// Absorb already carries o's trees/patterns, so the plain counters
	// above and the metrics stay aligned.
	e.met.Absorb(o.met)
	e.met.StageSince(obs.StageMerge, start)
	return nil
}

// EstimateOrderedUpperBound bounds COUNT_ord(Q) for patterns larger
// than the enumerated size k — the paper's §6.2 future-work case.
// Every embedding of Q induces an embedding of each of Q's
// sub-patterns, so COUNT_ord(Q) <= min over any set of <= k-edge
// sub-patterns of their counts. The estimate returned is the minimum
// of the (approximate) counts of Q's maximal enumerable sub-patterns;
// it is an upper bound up to estimation error. Patterns within k fall
// back to the plain estimator.
func (e *Engine) EstimateOrderedUpperBound(q *tree.Node) (float64, error) {
	start := e.met.QueryStart()
	est, err := e.estimateOrderedUpperBound(q)
	e.met.QueryDone(start, err)
	return est, err
}

func (e *Engine) estimateOrderedUpperBound(q *tree.Node) (float64, error) {
	if q == nil {
		return 0, fmt.Errorf("core: nil query pattern")
	}
	edges := q.Size() - 1
	if edges < 1 {
		return 0, fmt.Errorf("core: pattern has no edges")
	}
	k := e.cfg.MaxPatternEdges
	if edges <= k {
		return e.estimateOrdered(q)
	}
	subs := subPatterns(q, k)
	if len(subs) == 0 {
		return 0, fmt.Errorf("core: no enumerable sub-patterns")
	}
	best := 0.0
	for i, sp := range subs {
		est, err := e.estimateOrdered(sp)
		if err != nil {
			return 0, err
		}
		if est < 0 {
			est = 0
		}
		if i == 0 || est < best {
			best = est
		}
	}
	return best, nil
}

// subPatterns returns the k-edge sub-patterns of q rooted at each of
// q's nodes (the maximal enumerable witnesses), capped to keep query
// cost bounded.
func subPatterns(q *tree.Node, k int) []*tree.Node {
	const maxSubs = 64
	var out []*tree.Node
	seen := map[string]bool{}
	q.Walk(func(n *tree.Node) bool {
		if len(out) >= maxSubs {
			return false
		}
		for _, sp := range prunedTo(n, k) {
			key := sp.String()
			if !seen[key] {
				seen[key] = true
				out = append(out, sp)
				if len(out) >= maxSubs {
					break
				}
			}
		}
		return true
	})
	return out
}

// prunedTo returns versions of the subtree rooted at n pruned to
// exactly min(k, edges) edges by greedy truncation: a breadth-first
// prefix (always a valid sub-pattern containing the root). One variant
// suffices for an upper bound; we also add the depth-first prefix for
// a tighter minimum.
func prunedTo(n *tree.Node, k int) []*tree.Node {
	if n.Size()-1 < 1 {
		return nil
	}
	bfs := truncateBFS(n, k)
	dfs := truncateDFS(n, k)
	if bfs.String() == dfs.String() {
		return []*tree.Node{bfs}
	}
	return []*tree.Node{bfs, dfs}
}

// truncateBFS keeps the first k edges in breadth-first order.
func truncateBFS(n *tree.Node, k int) *tree.Node {
	root := &tree.Node{Label: n.Label}
	type pair struct{ src, dst *tree.Node }
	queue := []pair{{n, root}}
	edges := 0
	for len(queue) > 0 && edges < k {
		p := queue[0]
		queue = queue[1:]
		for _, c := range p.src.Children {
			if edges >= k {
				break
			}
			nc := &tree.Node{Label: c.Label}
			p.dst.Children = append(p.dst.Children, nc)
			queue = append(queue, pair{c, nc})
			edges++
		}
	}
	return root
}

// truncateDFS keeps the first k edges in preorder.
func truncateDFS(n *tree.Node, k int) *tree.Node {
	edges := 0
	var rec func(src *tree.Node) *tree.Node
	rec = func(src *tree.Node) *tree.Node {
		dst := &tree.Node{Label: src.Label}
		for _, c := range src.Children {
			if edges >= k {
				break
			}
			edges++
			dst.Children = append(dst.Children, rec(c))
		}
		return dst
	}
	return rec(n)
}
