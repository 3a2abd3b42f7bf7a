package topk

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"sketchtree/internal/ams"
	"sketchtree/internal/gf2"
	"sketchtree/internal/xi"
)

// referenceProcess is Algorithm 4 as a sequence of separate steps, each
// evaluating ξ on its own: the sketch update, the add-back of a tracked
// value, a CountPrepared re-estimate, the eviction and the deletion.
// Process fuses these steps and must leave the same state behind.
func referenceProcess(t *Tracker, v uint64, p *xi.Prep, est *ams.Estimator, evict *xi.Prep) {
	t.sketch.UpdatePrepared(p, 1)
	if e, ok := t.entries[v]; ok {
		t.sketch.UpdatePrepared(p, e.freq)
		heap.Remove(&t.heap, e.pos)
		delete(t.entries, v)
		t.deletedMass.Add(-e.freq)
		t.free = append(t.free, e)
	}
	f := int64(math.Round(est.CountPrepared(t.sketch, p, nil)))
	if f <= 0 {
		t.syncMirror()
		return
	}
	if len(t.entries) >= t.k {
		if f <= t.heap[0].freq {
			t.syncMirror()
			return
		}
		min := heap.Pop(&t.heap).(*entry)
		delete(t.entries, min.value)
		t.sketch.Seeds().Prepare(min.value, evict)
		t.sketch.UpdatePrepared(evict, min.freq)
		t.evictions.Add(1)
		t.deletedMass.Add(-min.freq)
		t.free = append(t.free, min)
	}
	e := t.newEntry(v, f)
	heap.Push(&t.heap, e)
	t.entries[v] = e
	t.sketch.UpdatePrepared(p, -f)
	t.promotions.Add(1)
	t.deletedMass.Add(f)
	t.syncMirror()
}

// sameTracker reports the first difference between two trackers over
// sketches of one seed set: counters, heap layout, entries or churn.
func sameTracker(a, b *Tracker) error {
	for c := 0; c < a.sketch.Seeds().Cells(); c++ {
		if x, y := a.sketch.Counter(c), b.sketch.Counter(c); x != y {
			return fmt.Errorf("cell %d: counter %d, reference %d", c, x, y)
		}
	}
	if len(a.heap) != len(b.heap) {
		return fmt.Errorf("heap holds %d entries, reference %d", len(a.heap), len(b.heap))
	}
	for i := range a.heap {
		x, y := *a.heap[i], *b.heap[i]
		if x != y || x.pos != i {
			return fmt.Errorf("heap[%d] = %+v, reference %+v", i, x, y)
		}
	}
	if x, y := a.Entries(), b.Entries(); !slices.Equal(x, y) {
		return fmt.Errorf("entries %v, reference %v", x, y)
	}
	if x, y := a.Churn(), b.Churn(); x != y {
		return fmt.Errorf("churn %+v, reference %+v", x, y)
	}
	return nil
}

// minTie reports whether two tracked values share the minimum
// frequency, so the heap layout decides which one an admission evicts.
func minTie(t *Tracker) bool {
	n := 0
	for _, e := range t.heap {
		if e.freq == t.heap[0].freq {
			n++
		}
	}
	return n > 1
}

// TestProcessMatchesReference drives seeded skewed streams through the
// fused Process and the step-by-step reference side by side, over the
// BCH family and a 6-wise polynomial family, and compares the complete
// tracker state after every arrival. The streams are sized so that
// trackers fill, evict, and hold ties at the heap minimum.
func TestProcessMatchesReference(t *testing.T) {
	field := gf2.MustField(1<<63 | 1<<1 | 1)
	poly, err := xi.NewPolyFamily(field, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name           string
		fam            *xi.Family
		s1, s2, k      int
		distinct, runs int
	}{
		{"BCH/small", xi.NewBCHFamily(field), 6, 3, 4, 40, 4000},
		{"BCH/paper", xi.NewBCHFamily(field), 25, 7, 50, 400, 6000},
		{"Poly6/small", poly, 6, 3, 4, 40, 4000},
		{"Poly6/paper", poly, 25, 7, 50, 400, 6000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(tc.k), uint64(tc.s1)))
			seeds, err := ams.NewSeeds(tc.fam, tc.s1, tc.s2, rng)
			if err != nil {
				t.Fatal(err)
			}
			fused, err := New(tc.k, seeds.NewSketch())
			if err != nil {
				t.Fatal(err)
			}
			ref, err := New(tc.k, seeds.NewSketch())
			if err != nil {
				t.Fatal(err)
			}
			signs := make([]int64, seeds.Cells())
			sc := NewScratch(seeds)
			est, evict := seeds.NewEstimator(), &xi.Prep{}
			p := &xi.Prep{}
			ties := 0
			for i := 0; i < tc.runs; i++ {
				// Skewed: a geometric head over a uniform tail, with
				// large, scattered values so virtual-stream-sized
				// partitions see distinct ξ patterns.
				r := uint64(rng.ExpFloat64() * float64(tc.distinct) / 8)
				if rng.IntN(4) == 0 {
					r = uint64(rng.IntN(tc.distinct))
				}
				v := r*0x9e3779b97f4a7c15 + 1
				seeds.Prepare(v, p)
				seeds.Batch().SignsInto(p, signs)
				fused.Process(v, signs, sc)
				referenceProcess(ref, v, p, est, evict)
				if err := sameTracker(fused, ref); err != nil {
					t.Fatalf("arrival %d (value %#x): %v", i, v, err)
				}
				if len(fused.heap) == tc.k && minTie(fused) {
					ties++
				}
			}
			c := fused.Churn()
			if c.Evictions == 0 || ties == 0 {
				t.Fatalf("stream too tame: %d evictions, %d arrivals with a tie at the minimum", c.Evictions, ties)
			}
			t.Logf("%d promotions, %d evictions, %d arrivals with a tie at the minimum", c.Promotions, c.Evictions, ties)
		})
	}
}
