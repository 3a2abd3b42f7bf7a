// Package topk implements SketchTree's top-k frequent pattern tracking
// (paper §5.2, Algorithm 4). The estimator variance is bounded by the
// self-join size of the sketched stream (Equation 2); deleting the
// most frequent values from the sketch — easy with AMS sketches —
// shrinks the self-join size dramatically on skewed streams.
//
// A Tracker maintains a min-heap H of estimated frequencies and a list
// L of the tracked values (a Go map plays the paper's C++ std::map).
// The delete condition is the central invariant: whenever value t is
// in L with stored frequency f_t, exactly f_t instances of t have been
// subtracted from the sketch. Query processing compensates by
// temporarily adding the deleted instances of any tracked query values
// back per cell (the d adjustment of §5.2).
package topk

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"sketchtree/internal/ams"
	"sketchtree/internal/xi"
)

// entry is one tracked value: its estimated frequency (the heap key)
// and its heap position.
type entry struct {
	value uint64
	freq  int64
	pos   int
}

type entryHeap []*entry

func (h entryHeap) Len() int            { return len(h) }
func (h entryHeap) Less(i, j int) bool  { return h[i].freq < h[j].freq }
func (h entryHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].pos = i; h[j].pos = j }
func (h *entryHeap) Push(x interface{}) { e := x.(*entry); e.pos = len(*h); *h = append(*h, e) }
func (h *entryHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Tracker tracks up to k frequent values of one sketch (one virtual
// stream when combined with package vstream).
type Tracker struct {
	k       int
	sketch  *ams.Sketch
	entries map[uint64]*entry // the list L
	heap    entryHeap         // the min-heap H over L's frequencies

	// Churn diagnostics, mirrored in atomics so health snapshots can
	// read them race-free against the updating goroutine. promotions
	// counts admissions (including refreshes of already-tracked
	// values); evictions counts minimum-entry displacements by a more
	// frequent value. residency, minFreq and deletedMass mirror the
	// current list state: entry count, smallest tracked frequency (0
	// when empty), and the total instance mass currently deleted from
	// the sketch.
	promotions  atomic.Int64
	evictions   atomic.Int64
	residency   atomic.Int64
	minFreq     atomic.Int64
	deletedMass atomic.Int64

	// free recycles list entries displaced earlier, so admissions in
	// steady state allocate nothing.
	free []*entry
}

// Scratch is the working memory of Process: the preparation of an
// evicted minimum and the re-estimate's row means. It belongs to the
// updating goroutine, not to a tracker, so one serves every tracker of
// an engine and a cloned tracker carries none.
type Scratch struct {
	prep *xi.Prep
	rows []float64
}

// NewScratch returns Process scratch for trackers over sketches of the
// seeds.
func NewScratch(seeds *ams.Seeds) *Scratch {
	return &Scratch{prep: &xi.Prep{}, rows: make([]float64, seeds.S2())}
}

// New creates a tracker of capacity k over the sketch. Arrivals the
// tracker processes reach the sketch through Process, which applies
// them itself.
func New(k int, sketch *ams.Sketch) (*Tracker, error) {
	if k < 1 {
		return nil, fmt.Errorf("topk: k=%d must be positive", k)
	}
	if sketch == nil {
		return nil, fmt.Errorf("topk: nil sketch")
	}
	return &Tracker{
		k:       k,
		sketch:  sketch,
		entries: make(map[uint64]*entry),
	}, nil
}

// newEntry takes an entry from the free list, or allocates one. In
// steady state every admission reuses an entry recycled by an earlier
// removal or eviction.
//
//lint:hotpath
func (t *Tracker) newEntry(v uint64, freq int64) *entry {
	if n := len(t.free); n > 0 {
		e := t.free[n-1]
		t.free = t.free[:n-1]
		*e = entry{value: v, freq: freq}
		return e
	}
	return &entry{value: v, freq: freq} //lint:allow hotpath allocates only until the free list warms; eviction churn reuses entries
}

// K returns the tracker capacity.
func (t *Tracker) K() int { return t.k }

// Len returns the number of currently tracked values.
func (t *Tracker) Len() int { return len(t.entries) }

// Tracked returns the stored (deleted) frequency of v and whether v is
// tracked.
func (t *Tracker) Tracked(v uint64) (int64, bool) {
	e, ok := t.entries[v]
	if !ok {
		return 0, false
	}
	return e.freq, true
}

// Process applies one arrival of value v to the sketch and runs
// Algorithm 4 for it. signs holds v's per-cell ξ sign masks
// (xi.Batch.SignsInto); sc is the caller's scratch.
//
// Steps: if v is tracked, its deleted instances are added back and the
// entry removed (lines 1–7); the frequency of v is then re-estimated
// from the sketch (line 8); if the estimate is positive and beats the
// minimum tracked frequency — or the tracker has room — v is
// (re)admitted: a full tracker first evicts its minimum, adding that
// value's instances back (lines 10–13), then v's estimated instances
// are deleted from the sketch and v is recorded (lines 14–18). The
// delete condition holds on exit.
//
// The arrival, the add-back and the re-estimate share one pass over
// the cells: they add 1 + f_v to each cell and sum the s2 rows of the
// result, which leaves the counters and the estimate exactly as an
// update, an add-back and a separate estimate would. The deletion is a
// second pass with the same masks.
//
//lint:hotpath
func (t *Tracker) Process(v uint64, signs []int64, sc *Scratch) {
	delta := int64(1)
	if e, ok := t.entries[v]; ok {
		delta += e.freq // add the deleted instances back with the arrival
		heap.Remove(&t.heap, e.pos)
		delete(t.entries, v)
		t.deletedMass.Add(-e.freq)
		t.free = append(t.free, e)
	}
	est := int64(math.Round(t.sketch.AddSignedCount(signs, delta, sc.rows)))
	if est <= 0 {
		t.syncMirror()
		return
	}
	if len(t.entries) >= t.k {
		if est <= t.heap[0].freq {
			t.syncMirror()
			return
		}
		// Evict the minimum: restore its instances to the sketch.
		min := heap.Pop(&t.heap).(*entry)
		delete(t.entries, min.value)
		t.sketch.Seeds().Prepare(min.value, sc.prep)
		t.sketch.UpdatePrepared(sc.prep, min.freq)
		t.evictions.Add(1)
		t.deletedMass.Add(-min.freq)
		t.free = append(t.free, min)
	}
	e := t.newEntry(v, est)
	heap.Push(&t.heap, e)
	t.entries[v] = e                //lint:allow hotpath entries are bounded by k; inserts beyond k follow an eviction
	t.sketch.AddSigned(signs, -est) // delete the estimated instances
	t.promotions.Add(1)
	t.deletedMass.Add(est)
	t.syncMirror()
}

// syncMirror realigns the residency and min-frequency atomics with the
// list after a Process step.
func (t *Tracker) syncMirror() {
	t.residency.Store(int64(len(t.entries)))
	if len(t.heap) == 0 {
		t.minFreq.Store(0)
		return
	}
	t.minFreq.Store(t.heap[0].freq)
}

// Churn is the tracker's admission/eviction accounting: lifetime
// promotion and eviction totals plus the current list state. All
// fields are read from atomics, so Churn is safe to call concurrently
// with Process.
type Churn struct {
	Promotions  int64 // admissions, including refreshes of tracked values
	Evictions   int64 // minimum entries displaced by a more frequent value
	Residency   int   // values currently tracked
	MinFreq     int64 // smallest tracked frequency (0 when empty)
	DeletedMass int64 // instance mass currently deleted from the sketch
}

// Churn reads the tracker's churn diagnostics race-free.
func (t *Tracker) Churn() Churn {
	return Churn{
		Promotions:  t.promotions.Load(),
		Evictions:   t.evictions.Load(),
		Residency:   int(t.residency.Load()),
		MinFreq:     t.minFreq.Load(),
		DeletedMass: t.deletedMass.Load(),
	}
}

// Adjustment returns the per-cell compensation d for a query over
// values vs: d[c] = Σ_{v ∈ vs ∩ L} ξ_v(c)·f_v, to be added to the
// counters during estimation (paper §5.2: "Z_j ← ξ·(X_ij + d)").
// Returns nil when no query value is tracked.
func (t *Tracker) Adjustment(vs []uint64) []int64 {
	var adj []int64
	seeds := t.sketch.Seeds()
	seen := make(map[uint64]bool, len(vs))
	for _, v := range vs {
		if seen[v] {
			continue
		}
		seen[v] = true
		e, ok := t.entries[v]
		if !ok {
			continue
		}
		if adj == nil {
			adj = make([]int64, seeds.Cells())
		}
		p := seeds.Prepare(v, nil)
		for c := range adj {
			adj[c] += int64(seeds.Xi(c, p)) * e.freq
		}
	}
	return adj
}

// AdjustmentOne is Adjustment for a single query value — the
// single-pattern query path. An untracked value (the common case)
// returns nil without allocating.
func (t *Tracker) AdjustmentOne(v uint64) []int64 {
	e, ok := t.entries[v]
	if !ok {
		return nil
	}
	seeds := t.sketch.Seeds()
	adj := make([]int64, seeds.Cells())
	p := seeds.Prepare(v, nil)
	for c := range adj {
		adj[c] = int64(seeds.Xi(c, p)) * e.freq
	}
	return adj
}

// AdjustmentAll compensates for every tracked value; used for
// whole-stream diagnostics such as self-join size including the
// deleted heavy hitters.
func (t *Tracker) AdjustmentAll() []int64 {
	if len(t.entries) == 0 {
		return nil
	}
	vs := make([]uint64, 0, len(t.entries))
	for v := range t.entries {
		vs = append(vs, v)
	}
	return t.Adjustment(vs)
}

// RestoreAll adds every tracked value's deleted instances back into
// the sketch and clears the tracker. After RestoreAll the sketch is
// exactly what it would have been without top-k processing (tested as
// an invariant).
func (t *Tracker) RestoreAll() {
	//lint:allow determinism sketch updates commute (Update adds counts), so restore order cannot change the resulting sketch state
	for v, e := range t.entries {
		t.sketch.Update(v, e.freq)
		delete(t.entries, v)
		t.free = append(t.free, e)
	}
	t.heap = t.heap[:0]
	t.residency.Store(0)
	t.minFreq.Store(0)
	t.deletedMass.Store(0)
}

// ValueFreq is a tracked value with its stored (deleted) frequency.
type ValueFreq struct {
	Value uint64
	Freq  int64
}

// Entries returns the tracked values and their stored frequencies in
// descending frequency order (the current top-k list).
func (t *Tracker) Entries() []ValueFreq {
	out := make([]ValueFreq, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, ValueFreq{Value: e.value, Freq: e.freq})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Freq != out[j].Freq {
			return out[i].Freq > out[j].Freq
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// Restore reconstructs a tracker from persisted entries. The sketch
// must already hold its persisted (post-deletion) counters; Restore
// only rebuilds the heap and list, re-establishing the delete
// condition recorded at snapshot time.
func Restore(k int, sketch *ams.Sketch, entries []ValueFreq) (*Tracker, error) {
	t, err := New(k, sketch)
	if err != nil {
		return nil, err
	}
	if len(entries) > k {
		return nil, fmt.Errorf("topk: %d entries exceed capacity %d", len(entries), k)
	}
	for _, vf := range entries {
		if vf.Freq <= 0 {
			return nil, fmt.Errorf("topk: entry %d has non-positive frequency %d", vf.Value, vf.Freq)
		}
		if _, dup := t.entries[vf.Value]; dup {
			return nil, fmt.Errorf("topk: duplicate entry %d", vf.Value)
		}
		e := &entry{value: vf.Value, freq: vf.Freq}
		heap.Push(&t.heap, e)
		t.entries[vf.Value] = e
		t.deletedMass.Add(vf.Freq)
	}
	t.syncMirror()
	return t, nil
}

// Clone copies the tracker onto sketch, which must hold a copy of the
// tracker's sketch counters. The heap keeps its exact layout, so ties
// between equal frequencies break the same way in both trackers. The
// entries live in one slab filled in heap-slice order, and the list is
// rebuilt from that slab. The list is sized for the capacity k, as a
// live list is once it has filled, so a clone costs the same number of
// allocations however many values are tracked.
func (t *Tracker) Clone(sketch *ams.Sketch) *Tracker {
	n := len(t.heap)
	c := &Tracker{
		k:       t.k,
		sketch:  sketch,
		entries: make(map[uint64]*entry, t.k),
		heap:    make(entryHeap, n),
	}
	slab := make([]entry, n)
	for i, e := range t.heap {
		slab[i] = *e
		c.heap[i] = &slab[i]
		c.entries[e.value] = &slab[i]
	}
	c.promotions.Store(t.promotions.Load())
	c.evictions.Store(t.evictions.Load())
	c.residency.Store(t.residency.Load())
	c.minFreq.Store(t.minFreq.Load())
	c.deletedMass.Store(t.deletedMass.Load())
	return c
}

// MemoryBytes accounts the heap and list storage: 24 bytes of payload
// per tracked entry in the heap plus the map entry, mirroring the
// paper's "top-k data structures" term in the synopsis size.
func (t *Tracker) MemoryBytes() int {
	return len(t.entries) * (24 + 16)
}
