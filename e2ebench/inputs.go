package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"sketchtree"
	"sketchtree/internal/datagen"
	"sketchtree/internal/match"
	"sketchtree/internal/tree"
)

// preloadSeed fixes the bulk-load corpus: every run and every seed
// preloads the same documents, so set-up cost does not move with the
// workload seed.
const preloadSeed = 0x5e7_0b0d

// doc is one stream document: the exact bytes sent over HTTP and the
// tree the benchmark's own parse of those bytes yields.
type doc struct {
	xml  []byte
	tree *sketchtree.Tree
}

// query is one POST /query request of the workload, with everything
// the benchmark needs to compute its exact answer.
type query struct {
	kind      string // "ordered", "unordered", "set" or "expression"
	withError bool
	pats      []int  // indices into inputs.pats
	op        string // expression operator: "add" or "sub"
	body      []byte // JSON request body
}

// inputs is everything one run sends, all derived from the seed except
// the fixed preload corpus.
type inputs struct {
	preload [][]doc // per preloading daemon (one, or one per shard)
	cycle   []doc   // the feed: replayed whole, cycle after cycle
	pats    []*sketchtree.Node
	queries []query // the query list, cycled by the open-loop stream

	// Exact per-document counts, the brute-force ground truth:
	// ord[p][i] and unord[p][i] for preload documents (all shards,
	// concatenated) then cycle documents.
	ord, unord [][]int64
}

// generate builds the run's inputs from the seed.
func generate(w *workload, seed uint64) (*inputs, error) {
	in := &inputs{}
	pre, err := genDocs(w.dataset, preloadSeed, w.preload)
	if err != nil {
		return nil, fmt.Errorf("preload corpus: %w", err)
	}
	parts := max(w.shards, 1)
	per := len(pre) / parts
	for i := 0; i < parts; i++ {
		in.preload = append(in.preload, pre[i*per:(i+1)*per])
	}
	in.cycle, err = genDocs(w.dataset, seed*0x9e3779b97f4a7c15+1, w.cycle)
	if err != nil {
		return nil, fmt.Errorf("feed: %w", err)
	}

	// Queries are drawn from the documents the final served state
	// covers with full weight: the whole cycle, or for the window the
	// live suffix of the cycle.
	rng := rand.New(rand.NewPCG(seed, 0x9e7))
	sel := in.cycle
	if w.mode == modeWindow {
		sel = in.cycle[len(in.cycle)-w.liveDocs():]
	}
	in.pats, err = selectPatterns(rng, sel, w)
	if err != nil {
		return nil, err
	}
	in.queries, err = buildQueries(rng, len(in.pats), w.sets, w.exprs)
	if err != nil {
		return nil, err
	}
	for i := range in.queries {
		in.queries[i].body, err = in.queries[i].request(in.pats)
		if err != nil {
			return nil, err
		}
	}
	in.exactCounts()
	return in, nil
}

// exactCounts fills the per-document exact-count tables by brute-force
// matching, on two goroutines (before any daemon starts, so nothing
// measured competes with it).
func (in *inputs) exactCounts() {
	all := in.allDocs()
	in.ord = make([][]int64, len(in.pats))
	in.unord = make([][]int64, len(in.pats))
	var wg sync.WaitGroup
	for half := 0; half < 2; half++ {
		wg.Add(1)
		go func(half int) {
			defer wg.Done()
			for p := half; p < len(in.pats); p += 2 {
				q := in.pats[p]
				ord, unord := make([]int64, len(all)), make([]int64, len(all))
				for i, d := range all {
					ord[i] = match.CountOrdered(d.tree.Root, q)
					unord[i] = match.CountUnordered(d.tree.Root, q)
				}
				in.ord[p], in.unord[p] = ord, unord
			}
		}(half)
	}
	wg.Wait()
}

// allDocs lists the preload documents (all parts) then the cycle: the
// index space of the exact-count tables.
func (in *inputs) allDocs() []doc {
	var all []doc
	for _, part := range in.preload {
		all = append(all, part...)
	}
	return append(all, in.cycle...)
}

// preloadLen is the number of preloaded documents across all parts.
func (in *inputs) preloadLen() int {
	n := 0
	for _, part := range in.preload {
		n += len(part)
	}
	return n
}

// genDocs renders n generated trees to XML and parses each back, so the
// reference side sees exactly what a daemon parses.
func genDocs(dataset string, seed uint64, n int) ([]doc, error) {
	var src *datagen.Source
	switch dataset {
	case "TREEBANK":
		src = datagen.Treebank(seed, n)
	case "DBLP":
		src = datagen.DBLP(seed, n)
	default:
		return nil, fmt.Errorf("unknown dataset %q", dataset)
	}
	docs := make([]doc, 0, n)
	err := src.ForEach(func(t *tree.Tree) error {
		var b bytes.Buffer
		if err := t.Root.WriteXML(&b); err != nil {
			return err
		}
		parsed, err := sketchtree.ParseXML(bytes.NewReader(b.Bytes()))
		if err != nil {
			return err
		}
		docs = append(docs, doc{xml: b.Bytes(), tree: parsed})
		return nil
	})
	return docs, err
}

// writeForest writes docs as one rooted forest document, the form the
// daemons bulk-load with -forest.
func writeForest(path string, docs []doc) error {
	var b bytes.Buffer
	b.WriteString("<corpus>\n")
	for _, d := range docs {
		b.Write(d.xml)
		b.WriteByte('\n')
	}
	b.WriteString("</corpus>\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// selectPatterns draws distinct query patterns from the documents:
// a random connected piece of a random document, kept when its exact
// ordered count over sel reaches the workload's floor. Drawing from
// the documents weights frequent patterns the way the stream does. A
// count over a sample of sel screens out candidates that cannot reach
// the floor before the full count.
//
// Some seeds' documents hold fewer distinct patterns at the floor than
// the workload asks for (window-treebank seed 30: 249 of 250). When
// 500 draws per pattern asked have not found them all, the floor
// halves for the rest of the draw, so every seed yields the full
// query list; a seed that finds enough never reaches that point.
func selectPatterns(rng *rand.Rand, sel []doc, w *workload) ([]*sketchtree.Node, error) {
	sample := sel[:min(len(sel), 60)]
	floor := w.minCount
	screen := float64(floor) * float64(len(sample)) / float64(len(sel)) / 2
	seen := map[string]bool{} // drawn at the current floor
	kept := map[string]bool{}
	var out []*sketchtree.Node
	for tries := 0; len(out) < w.patterns; tries++ {
		if tries > 500*w.patterns {
			if floor == 1 {
				return nil, fmt.Errorf("found only %d of %d patterns occurring at all", len(out), w.patterns)
			}
			floor, tries = floor/2, 0
			screen = float64(floor) * float64(len(sample)) / float64(len(sel)) / 2
			seen = maps.Clone(kept)
		}
		d := sel[rng.IntN(len(sel))].tree.Root
		p := randomPattern(rng, d, 1+rng.IntN(w.k))
		if p == nil {
			continue
		}
		key := p.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		if float64(countOrdered(sample, p)) < screen {
			continue
		}
		if countOrdered(sel, p) >= int64(floor) {
			// Keep the pattern as the daemon will read it: parsed
			// back from the S-expression the request carries.
			q, err := sketchtree.ParsePattern(key)
			if err != nil {
				return nil, fmt.Errorf("pattern %s: %w", key, err)
			}
			out = append(out, q)
			kept[key] = true
		}
	}
	return out, nil
}

// countOrdered is the exact ordered count of p over docs.
func countOrdered(docs []doc, p *tree.Node) int64 {
	var c int64
	for _, d := range docs {
		c += match.CountOrdered(d.tree.Root, p)
	}
	return c
}

// randomPattern grows a pattern of exactly edges edges from a random
// node of root, adding one random data child of an included node at a
// time and keeping children in document order, so the pattern occurs
// in the document as an ordered embedding. nil when the chosen node's
// subtree is too small.
func randomPattern(rng *rand.Rand, root *tree.Node, edges int) *tree.Node {
	var nodes []*tree.Node
	root.Walk(func(n *tree.Node) bool {
		nodes = append(nodes, n)
		return true
	})
	start := nodes[rng.IntN(len(nodes))]
	included := map[*tree.Node][]int{start: nil} // data node -> chosen child indices
	order := []*tree.Node{start}
	for e := 0; e < edges; e++ {
		type cand struct {
			parent *tree.Node
			idx    int
		}
		var cands []cand
		for _, n := range order {
			for i, c := range n.Children {
				if _, ok := included[c]; !ok {
					cands = append(cands, cand{n, i})
				}
			}
		}
		if len(cands) == 0 {
			return nil
		}
		c := cands[rng.IntN(len(cands))]
		child := c.parent.Children[c.idx]
		included[c.parent] = append(included[c.parent], c.idx)
		included[child] = nil
		order = append(order, child)
	}
	var build func(n *tree.Node) *tree.Node
	build = func(n *tree.Node) *tree.Node {
		out := &tree.Node{Label: n.Label}
		idx := append([]int(nil), included[n]...)
		sort.Ints(idx)
		for _, i := range idx {
			out.Children = append(out.Children, build(n.Children[i]))
		}
		return out
	}
	return build(start)
}

// buildQueries lays out the query list over n patterns: every pattern
// as an ordered and an unordered count, each with and without an error
// bar; sets of three distinct patterns, with and without an error bar;
// and sums and differences of two counts. The list is shuffled once, so
// the stream interleaves kinds.
func buildQueries(rng *rand.Rand, n, sets, exprs int) ([]query, error) {
	if n < 3 {
		return nil, fmt.Errorf("need at least 3 patterns, have %d", n)
	}
	var qs []query
	for p := 0; p < n; p++ {
		for _, kind := range []string{"ordered", "unordered"} {
			qs = append(qs, query{kind: kind, pats: []int{p}},
				query{kind: kind, withError: true, pats: []int{p}})
		}
	}
	for s := 0; s < sets; s++ {
		perm := rng.Perm(n)[:3]
		qs = append(qs, query{kind: "set", pats: perm},
			query{kind: "set", withError: true, pats: perm})
	}
	for e := 0; e < exprs; e++ {
		perm := rng.Perm(n)[:2]
		op := "add"
		if e%2 == 1 {
			op = "sub"
		}
		qs = append(qs, query{kind: "expression", pats: perm, op: op})
	}
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs, nil
}

// request renders the /query JSON body.
func (q *query) request(pats []*sketchtree.Node) ([]byte, error) {
	body := map[string]any{"kind": q.kind}
	switch q.kind {
	case "ordered", "unordered":
		body["pattern"] = pats[q.pats[0]].String()
	case "set":
		var ps []string
		for _, p := range q.pats {
			ps = append(ps, pats[p].String())
		}
		body["patterns"] = ps
	case "expression":
		body["expr"] = map[string]any{
			"op": q.op,
			"l":  map[string]any{"op": "count", "pattern": pats[q.pats[0]].String()},
			"r":  map[string]any{"op": "count", "pattern": pats[q.pats[1]].String()},
		}
	}
	if q.withError {
		body["with_error"] = true
	}
	return json.Marshal(body)
}

// exact computes the query's true answer from the per-document counts
// and the multiplicity with which the served state covers each document
// (indexed like inputs.allDocs).
func (in *inputs) exact(q *query, mult []int64) float64 {
	count := func(tab [][]int64, p int) float64 {
		var s int64
		for i, m := range mult {
			s += m * tab[p][i]
		}
		return float64(s)
	}
	switch q.kind {
	case "ordered":
		return count(in.ord, q.pats[0])
	case "unordered":
		return count(in.unord, q.pats[0])
	case "set":
		var s float64
		for _, p := range q.pats {
			s += count(in.ord, p)
		}
		return s
	default:
		l, r := count(in.ord, q.pats[0]), count(in.ord, q.pats[1])
		if q.op == "sub" {
			return l - r
		}
		return l + r
	}
}

// writeInputs persists the run's preload corpus for the daemons.
func writeInputs(dir string, in *inputs) ([]string, error) {
	var paths []string
	for i, part := range in.preload {
		p := filepath.Join(dir, fmt.Sprintf("preload-%d.xml", i))
		if err := writeForest(p, part); err != nil {
			return nil, err
		}
		paths = append(paths, p)
	}
	return paths, nil
}
