// Package ams implements AMS sketches (Alon, Matias, Szegedy) boosted
// by the standard averaging/median-selection technique, as used by
// SketchTree (paper §3).
//
// An atomic sketch is the randomized linear projection X = Σ f_i ξ_i of
// the frequency vector of a stream, maintained online by adding ξ_v on
// every arrival of value v (and subtracting it on deletion). A boosted
// sketch keeps s1 × s2 independent atomic sketches: averaging s1 of
// them controls accuracy (Chebyshev), taking the median of s2 averages
// controls confidence (Chernoff).
//
// Seeds is separated from Sketch so that several sketches — the
// paper's virtual streams (§5.3) — can share one set of ξ generators;
// sharing makes the cell-wise sum of two sketches the sketch of the
// union of their streams.
package ams

import (
	"fmt"
	"math"
	"sort"

	"sketchtree/internal/xi"
)

// Seeds holds the s1 × s2 independent ξ generators of a boosted
// sketch. The generator for row i (confidence index, 0 <= i < s2) and
// column j (accuracy index, 0 <= j < s1) is at cell index i*s1 + j.
type Seeds struct {
	fam    *xi.Family
	s1, s2 int
	gens   []*xi.Generator

	// batch is the flattened word-major view of gens, built once at
	// construction: the per-pattern sketch update touches all s1×s2
	// cells, and the batch layout turns that into contiguous-array
	// passes instead of one pointer chase per cell.
	batch *xi.Batch
}

// NewSeeds draws s1 × s2 independent generators of the family from
// rnd.
func NewSeeds(fam *xi.Family, s1, s2 int, rnd interface{ Uint64() uint64 }) (*Seeds, error) {
	if s1 < 1 || s2 < 1 {
		return nil, fmt.Errorf("ams: s1=%d, s2=%d must be positive", s1, s2)
	}
	se := &Seeds{fam: fam, s1: s1, s2: s2, gens: make([]*xi.Generator, s1*s2)}
	for i := range se.gens {
		se.gens[i] = fam.NewGenerator(rnd)
	}
	b, err := xi.NewBatch(se.gens)
	if err != nil {
		return nil, fmt.Errorf("ams: %w", err)
	}
	se.batch = b
	return se, nil
}

// S1 returns the accuracy parameter (instances averaged per row).
func (se *Seeds) S1() int { return se.s1 }

// S2 returns the confidence parameter (rows medianed).
func (se *Seeds) S2() int { return se.s2 }

// Cells returns s1 × s2.
func (se *Seeds) Cells() int { return len(se.gens) }

// Family returns the ξ family of the seeds.
func (se *Seeds) Family() *xi.Family { return se.fam }

// Prepare computes the value-side ξ preparation shared by all cells.
//
//lint:hotpath
func (se *Seeds) Prepare(v uint64, p *xi.Prep) *xi.Prep {
	return se.fam.Prepare(v, p)
}

// Xi evaluates cell c's ±1 variable on a prepared value.
func (se *Seeds) Xi(c int, p *xi.Prep) int8 { return se.gens[c].Xi(p) }

// Words exports every generator's seed words (row-major cell order)
// for synopsis persistence.
func (se *Seeds) Words() [][]uint64 {
	out := make([][]uint64, len(se.gens))
	for i, g := range se.gens {
		out[i] = g.SeedWords()
	}
	return out
}

// SeedsFromWords reconstructs a Seeds from the output of Words.
func SeedsFromWords(fam *xi.Family, s1, s2 int, words [][]uint64) (*Seeds, error) {
	if s1 < 1 || s2 < 1 {
		return nil, fmt.Errorf("ams: s1=%d, s2=%d must be positive", s1, s2)
	}
	if len(words) != s1*s2 {
		return nil, fmt.Errorf("ams: %d seed records for %d cells", len(words), s1*s2)
	}
	se := &Seeds{fam: fam, s1: s1, s2: s2, gens: make([]*xi.Generator, s1*s2)}
	for i, w := range words {
		g, err := fam.GeneratorFromWords(w)
		if err != nil {
			return nil, fmt.Errorf("ams: cell %d: %w", i, err)
		}
		se.gens[i] = g
	}
	b, err := xi.NewBatch(se.gens)
	if err != nil {
		return nil, fmt.Errorf("ams: %w", err)
	}
	se.batch = b
	return se, nil
}

// Batch returns the flattened generator view shared by every sketch
// over these seeds.
func (se *Seeds) Batch() *xi.Batch { return se.batch }

// MemoryBytes returns the memory consumed by the stored seeds, for the
// paper's synopsis-size accounting ("independent random seeds required
// for constructing four-wise independent binary random variables").
func (se *Seeds) MemoryBytes() int {
	n := 0
	for _, g := range se.gens {
		n += g.MemoryBytes()
	}
	return n
}

// Sketch is a boosted AMS sketch: one int64 counter per cell, updated
// under the generators of a shared Seeds.
type Sketch struct {
	seeds *Seeds
	x     []int64
}

// NewSketch returns an all-zero sketch over the seeds.
func (se *Seeds) NewSketch() *Sketch {
	return &Sketch{seeds: se, x: make([]int64, se.Cells())}
}

// Seeds returns the seed set backing the sketch.
func (s *Sketch) Seeds() *Seeds { return s.seeds }

// Counter returns the raw counter of cell c (for tests and top-k
// bookkeeping).
func (s *Sketch) Counter(c int) int64 { return s.x[c] }

// Counters returns a copy of all cell counters for persistence.
func (s *Sketch) Counters() []int64 {
	out := make([]int64, len(s.x))
	copy(out, s.x)
	return out
}

// SketchFromCounters reconstructs a sketch over the seeds from
// persisted counters.
func (se *Seeds) SketchFromCounters(x []int64) (*Sketch, error) {
	if len(x) != se.Cells() {
		return nil, fmt.Errorf("ams: %d counters for %d cells", len(x), se.Cells())
	}
	s := se.NewSketch()
	copy(s.x, x)
	return s, nil
}

// MemoryBytes returns the counter storage in bytes.
func (s *Sketch) MemoryBytes() int { return 8 * len(s.x) }

// IsZero reports whether every counter is zero.
func (s *Sketch) IsZero() bool {
	for _, v := range s.x {
		if v != 0 {
			return false
		}
	}
	return true
}

// UpdatePrepared adds delta·ξ_v to every cell for the prepared value.
// delta is the (possibly negative) multiplicity: Update(v, -m) deletes
// m instances of v, the AMS deletion property the top-k strategy
// relies on. The update runs through the flattened seed batch — one
// contiguous branchless pass over the counters, the stream-processing
// inner loop.
func (s *Sketch) UpdatePrepared(p *xi.Prep, delta int64) {
	s.seeds.batch.AddInto(p, delta, s.x)
}

// Update is UpdatePrepared with a one-off preparation of v.
func (s *Sketch) Update(v uint64, delta int64) {
	s.UpdatePrepared(s.seeds.Prepare(v, nil), delta)
}

// AddSketch adds o cell-wise into s. Both sketches must be built over
// equal seeds — the same Seeds object, or one with identical
// dimensions, family, and generator words (e.g. after persistence or
// parallel construction from the same master seed); the result is then
// the sketch of the union of the two streams.
func (s *Sketch) AddSketch(o *Sketch) error {
	if o.seeds != s.seeds && !s.seeds.Equal(o.seeds) {
		return fmt.Errorf("ams: cannot add sketches with different seeds")
	}
	for c := range s.x {
		s.x[c] += o.x[c]
	}
	return nil
}

// Equal reports whether two seed sets define the same ξ variables:
// same dimensions, same family shape, and identical generator seed
// words. It allocates nothing.
//
//lint:hotpath
func (se *Seeds) Equal(o *Seeds) bool {
	if se == o {
		return true
	}
	if o == nil || se.s1 != o.s1 || se.s2 != o.s2 {
		return false
	}
	if se.fam.Kind() != o.fam.Kind() || se.fam.Independence() != o.fam.Independence() ||
		se.fam.Field().Modulus() != o.fam.Field().Modulus() {
		return false
	}
	for i, g := range se.gens {
		if !g.Equal(o.gens[i]) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy sharing the same seeds.
func (s *Sketch) Clone() *Sketch {
	c := s.seeds.NewSketch()
	copy(c.x, s.x)
	return c
}

// medianOfMeans aggregates a per-cell statistic: mean over each row of
// s1 cells, median over the s2 row means.
func (s *Sketch) medianOfMeans(cell func(c int) float64) float64 {
	return median(s.rowMeans(cell))
}

// rowMeans computes the s2 independent row means of a per-cell
// statistic — the values the median-of-means boost selects from. Each
// row mean is itself an unbiased estimator (an average of s1
// independent atomic estimators), so their empirical spread quantifies
// the uncertainty of the boosted estimate.
func (s *Sketch) rowMeans(cell func(c int) float64) []float64 {
	rows := make([]float64, s.seeds.s2)
	for i := 0; i < s.seeds.s2; i++ {
		sum := 0.0
		base := i * s.seeds.s1
		for j := 0; j < s.seeds.s1; j++ {
			sum += cell(base + j)
		}
		rows[i] = sum / float64(s.seeds.s1)
	}
	return rows
}

// RowEstimate is a point estimate together with the s2 row means it
// was selected from. Value is the median of Rows; Rows is in row order
// (not sorted).
type RowEstimate struct {
	Value float64
	Rows  []float64
}

// rowEstimate pairs the median with a row-ordered copy of the means.
func (s *Sketch) rowEstimate(cell func(c int) float64) RowEstimate {
	rows := s.rowMeans(cell)
	sorted := make([]float64, len(rows))
	copy(sorted, rows)
	return RowEstimate{Value: median(sorted), Rows: rows}
}

// StdErr returns the sample standard deviation of the row means — the
// empirical standard error of one row's estimator. It is a
// conservative standard error for the median of the rows (the median
// of s2 independent row means concentrates at least as well as a
// single row). Returns 0 when fewer than two rows exist.
func (r RowEstimate) StdErr() float64 {
	n := len(r.Rows)
	if n < 2 {
		return 0
	}
	mean := 0.0
	for _, x := range r.Rows {
		mean += x
	}
	mean /= float64(n)
	ss := 0.0
	for _, x := range r.Rows {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// medianInPlace sorts xs with insertion sort — s2 is a handful of rows,
// and unlike sort.Float64s it cannot allocate — and returns the median.
// Row means are finite (integer-valued counters), so the sorted order,
// and hence the median, is identical to sort.Float64s's.
//
//lint:hotpath
func medianInPlace(xs []float64) float64 {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// Estimator is reusable scratch for repeated count estimation over
// sketches sharing one Seeds: the ξ preparation, the per-cell parity
// bits, and the row means live in the Estimator, so steady-state
// estimation allocates nothing. Results are bit-identical to
// EstimateCount. An Estimator is not safe for concurrent use; pool
// one per goroutine.
type Estimator struct {
	seeds *Seeds
	prep  *xi.Prep
	bits  []uint8
	rows  []float64
}

// NewEstimator returns an estimator over the seeds.
func (se *Seeds) NewEstimator() *Estimator {
	return &Estimator{
		seeds: se,
		prep:  &xi.Prep{},
		bits:  make([]uint8, se.Cells()),
		rows:  make([]float64, se.s2),
	}
}

// Count estimates the frequency of value v from the sketch, exactly as
// Sketch.EstimateCount but through the estimator's scratch.
//
//lint:hotpath
func (es *Estimator) Count(s *Sketch, v uint64, adjust []int64) float64 {
	es.seeds.Prepare(v, es.prep)
	return es.CountPrepared(s, es.prep, adjust)
}

// CountPrepared is Count for an already-prepared value — the top-k
// processing path estimates the very value whose preparation it was
// handed, so re-deriving it would double the GF(2^m) work.
//
//lint:hotpath
func (es *Estimator) CountPrepared(s *Sketch, p *xi.Prep, adjust []int64) float64 {
	se := es.seeds
	se.batch.BitsInto(p, es.bits)
	for i := 0; i < se.s2; i++ {
		sum := 0.0
		base := i * se.s1
		for j := 0; j < se.s1; j++ {
			c := base + j
			x := s.x[c]
			if adjust != nil {
				x += adjust[c]
			}
			if es.bits[c] != 0 {
				x = -x
			}
			sum += float64(x)
		}
		es.rows[i] = sum / float64(se.s1)
	}
	return medianInPlace(es.rows)
}

// EstimateCount estimates the frequency of value v: median over rows
// of the mean of ξ_v·X (paper §3.1, Theorem 1). adjust, if non-nil,
// is added cell-wise to the counters before estimation; the top-k
// strategy uses it to temporarily restore deleted frequent values
// (paper §5.2).
func (s *Sketch) EstimateCount(v uint64, adjust []int64) float64 {
	p := s.seeds.Prepare(v, nil)
	return s.medianOfMeans(func(c int) float64 {
		x := s.x[c]
		if adjust != nil {
			x += adjust[c]
		}
		return float64(int64(s.seeds.gens[c].Xi(p)) * x)
	})
}

// EstimateCountDetailed is EstimateCount returning the per-row means
// behind the median, for error-bar derivation.
func (s *Sketch) EstimateCountDetailed(v uint64, adjust []int64) RowEstimate {
	p := s.seeds.Prepare(v, nil)
	return s.rowEstimate(func(c int) float64 {
		x := s.x[c]
		if adjust != nil {
			x += adjust[c]
		}
		return float64(int64(s.seeds.gens[c].Xi(p)) * x)
	})
}

// EstimateSetCount estimates the total frequency Σ_l f_{v_l} of a set
// of distinct values using the single estimator X·Σ_l ξ_{v_l}
// (paper §3.2, Theorem 2). The caller must ensure the values are
// distinct. adjust is as in EstimateCount.
func (s *Sketch) EstimateSetCount(vs []uint64, adjust []int64) float64 {
	preps := make([]*xi.Prep, len(vs))
	for l, v := range vs {
		preps[l] = s.seeds.Prepare(v, nil)
	}
	return s.medianOfMeans(func(c int) float64 {
		coef := int64(0)
		for _, p := range preps {
			coef += int64(s.seeds.gens[c].Xi(p))
		}
		x := s.x[c]
		if adjust != nil {
			x += adjust[c]
		}
		return float64(coef * x)
	})
}

// EstimateSetCountDetailed is EstimateSetCount returning the per-row
// means behind the median, for error-bar derivation.
func (s *Sketch) EstimateSetCountDetailed(vs []uint64, adjust []int64) RowEstimate {
	preps := make([]*xi.Prep, len(vs))
	for l, v := range vs {
		preps[l] = s.seeds.Prepare(v, nil)
	}
	return s.rowEstimate(func(c int) float64 {
		coef := int64(0)
		for _, p := range preps {
			coef += int64(s.seeds.gens[c].Xi(p))
		}
		x := s.x[c]
		if adjust != nil {
			x += adjust[c]
		}
		return float64(coef * x)
	})
}

// EstimateF2 estimates the second frequency moment (self-join size) of
// the sketched stream: median over rows of the mean of X². The
// self-join size governs the estimator variance (Equation 2), so this
// is the online diagnostic for how much memory a target accuracy
// needs.
func (s *Sketch) EstimateF2(adjust []int64) float64 {
	return s.medianOfMeans(func(c int) float64 {
		x := s.x[c]
		if adjust != nil {
			x += adjust[c]
		}
		return float64(x) * float64(x)
	})
}

// Theorem1S1 returns the number s1 of averaged instances that Theorem 1
// prescribes to estimate a count fq over a stream of self-join size sj
// with relative error at most eps: s1 = 8·SJ(S) / (ε²·fq²).
func Theorem1S1(sj float64, fq float64, eps float64) int {
	if fq <= 0 || eps <= 0 {
		return math.MaxInt32
	}
	s1 := 8 * sj / (eps * eps * fq * fq)
	return int(math.Ceil(s1))
}

// Theorem2S1 returns the s1 of Theorem 2 for estimating the total
// frequency fsum of t distinct patterns: s1 = 16·(t-1)·SJ(S) /
// (ε²·fsum²).
func Theorem2S1(sj float64, t int, fsum float64, eps float64) int {
	if fsum <= 0 || eps <= 0 || t < 1 {
		return math.MaxInt32
	}
	if t == 1 {
		return Theorem1S1(sj, fsum, eps)
	}
	s1 := 16 * float64(t-1) * sj / (eps * eps * fsum * fsum)
	return int(math.Ceil(s1))
}

// S2ForConfidence returns the number s2 of medianed rows for failure
// probability at most delta: s2 = ⌈2·lg(1/δ)⌉.
func S2ForConfidence(delta float64) int {
	if delta <= 0 || delta >= 1 {
		return 1
	}
	return int(math.Ceil(2 * math.Log2(1/delta)))
}

// VarBoundSingle bounds the variance of the single-count estimator
// ξ_q·X: Var ≤ SJ(S) (Equation 2).
func VarBoundSingle(sj float64) float64 { return sj }

// VarBoundSet bounds the variance of the set estimator X·Σξ for t
// distinct patterns: Var ≤ 2·(t−1)·SJ(S) (Equation 7). t = 1 reduces
// to the single-count bound.
func VarBoundSet(t int, sj float64) float64 {
	if t <= 1 {
		return VarBoundSingle(sj)
	}
	return 2 * float64(t-1) * sj
}

// VarBoundProduct bounds the variance of the pairwise-product
// estimator X²/2!·ξ_a ξ_b over a stream with n distinct values:
// Var ≤ (1 + 2n)/4 · SJ(S)² (Appendix B, Equation 17). The bound's
// growth with SJ² is why PRODUCT workloads show larger errors than SUM
// workloads in Figure 12.
func VarBoundProduct(n int, sj float64) float64 {
	return (1 + 2*float64(n)) / 4 * sj * sj
}
