// Package obs is the pipeline's observability layer: cheap atomic
// counters, monotonic-clock stage timers, and a fixed-bucket query
// latency histogram, read out as a consistent-enough Snapshot.
//
// The design constraint is that instrumentation must never perturb the
// hot path it measures. Counter updates are single atomic adds with no
// locks and no allocation. Stage and query timing call the clock, so
// they are gated behind an enabled flag (EnableTimers): when timers
// are off, Now returns the zero Time and every *Since helper is a
// branch-and-return — no time syscall, no atomics. Engines therefore
// keep full tree/pattern accounting always, and pay for timing only
// when an operator opts in (e.g. cmd/sketchtree -metrics).
//
// A single Metrics value may be written by one updating goroutine and
// read by any number of Snapshot callers; all fields are atomics, so
// reads are race-free. Snapshot loads fields individually: totals are
// exact per counter but not cut at one instant across counters.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Stage identifies one instrumented pipeline stage.
type Stage int

const (
	// StageParse is XML decoding into labeled trees (producer side).
	StageParse Stage = iota
	// StageEnum is EnumTree pattern enumeration (Algorithm 1's driver).
	StageEnum
	// StageFingerprint is extended Prüfer sequencing plus the Rabin
	// fingerprint to a one-dimensional value (§6.1).
	StageFingerprint
	// StageSketch is ξ preparation plus the AMS sketch update across
	// the routed virtual stream. For an arrival that goes through top-k
	// it is ξ preparation plus the evaluation of v's per-cell ξ signs;
	// the cell update itself is timed under StageTopK.
	StageSketch
	// StageTopK is per-pattern top-k frequent-pattern processing
	// (Algorithm 4), including the arrival's own cell update, which it
	// fuses with the add-back and the re-estimate.
	StageTopK
	// StageMerge is the cell-wise shard merge of parallel ingestion.
	StageMerge
	// StagePlan is query-plan cache lookup (hit probe plus, on a miss,
	// plan construction and insertion).
	StagePlan
	// StagePublish is snapshot rebuild-and-publish: freezing the live
	// synopsis into the lock-free serving copy (standalone snapshot
	// serving and the coordinator's merged-serving publish).
	StagePublish

	// NumStages is the number of instrumented stages.
	NumStages = iota
)

var stageNames = [NumStages]string{
	"parse", "enum", "fingerprint", "sketch", "topk", "merge",
	"plan", "publish",
}

// String returns the stage's exposition name.
func (s Stage) String() string {
	if s < 0 || int(s) >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// NumLatencyBuckets is the number of query-latency histogram buckets.
// Bucket i counts queries with latency < 2^i microseconds; the last
// bucket is the overflow (+Inf) bucket, so the range spans 1 µs to
// ~65 ms before overflow.
const NumLatencyBuckets = 18

// LatencyBucketBound returns the exclusive upper bound of bucket i;
// the last bucket is unbounded and returns a negative duration.
func LatencyBucketBound(i int) time.Duration {
	if i >= NumLatencyBuckets-1 {
		return -1
	}
	return time.Duration(1000 << i) // 2^i microseconds, in nanoseconds
}

// latencyBucket maps a duration to its histogram bucket index.
func latencyBucket(d time.Duration) int {
	us := uint64(d / time.Microsecond)
	b := bits.Len64(us) // 0 for <1µs, k for [2^(k-1), 2^k) µs
	if b >= NumLatencyBuckets {
		return NumLatencyBuckets - 1
	}
	return b
}

type stageCell struct {
	count atomic.Int64
	nanos atomic.Int64
}

// Metrics is the write side of the observability layer. The zero value
// is ready to use with timers disabled. All methods are safe on a nil
// receiver (no-ops / zero values), so uninstrumented call sites need no
// guards.
type Metrics struct {
	timers atomic.Bool

	trees    atomic.Int64
	patterns atomic.Int64
	removes  atomic.Int64

	queries     atomic.Int64
	queryErrors atomic.Int64
	queryNanos  atomic.Int64
	queryBucket [NumLatencyBuckets]atomic.Int64

	stages [NumStages]stageCell
}

// EnableTimers switches stage and query-latency timing on or off.
// Counters are unaffected: they are always maintained.
func (m *Metrics) EnableTimers(on bool) {
	if m != nil {
		m.timers.Store(on)
	}
}

// TimersOn reports whether stage/latency timing is enabled.
func (m *Metrics) TimersOn() bool { return m != nil && m.timers.Load() }

// Now returns the current (monotonic) time when timers are enabled and
// the zero Time otherwise — the gate that keeps disabled
// instrumentation free of clock calls. Pair with StageSince/QueryDone,
// which ignore zero starts.
func (m *Metrics) Now() time.Time {
	if !m.TimersOn() {
		return time.Time{}
	}
	return time.Now()
}

// AddTrees adjusts the tree counter by delta (negative for removals).
func (m *Metrics) AddTrees(delta int64) {
	if m != nil {
		m.trees.Add(delta)
	}
}

// AddPatterns adjusts the pattern-occurrence counter by delta.
func (m *Metrics) AddPatterns(delta int64) {
	if m != nil {
		m.patterns.Add(delta)
	}
}

// AddRemoves counts explicit tree deletions (sliding windows).
func (m *Metrics) AddRemoves(n int64) {
	if m != nil {
		m.removes.Add(n)
	}
}

// StageAdd records n operations and their total duration against a
// stage. Call sites accumulate locally (e.g. per tree) and flush once,
// so the hot path performs two atomic adds per stage per tree.
func (m *Metrics) StageAdd(s Stage, n, nanos int64) {
	if m == nil || (n == 0 && nanos == 0) {
		return
	}
	m.stages[s].count.Add(n)
	m.stages[s].nanos.Add(nanos)
}

// StageSince records one operation against a stage, timed from start.
// A zero start (timers disabled at Now) is a no-op.
func (m *Metrics) StageSince(s Stage, start time.Time) {
	if m == nil || start.IsZero() {
		return
	}
	m.StageAdd(s, 1, time.Since(start).Nanoseconds())
}

// QueryStart marks the beginning of a query; it returns the zero Time
// when timers are disabled. The query is not counted until QueryDone.
func (m *Metrics) QueryStart() time.Time { return m.Now() }

// QueryDone counts one finished query and, when start is non-zero,
// folds its latency into the histogram. failed queries are counted
// separately and excluded from the latency histogram.
func (m *Metrics) QueryDone(start time.Time, err error) {
	if m == nil {
		return
	}
	m.queries.Add(1)
	if err != nil {
		m.queryErrors.Add(1)
		return
	}
	if start.IsZero() {
		return
	}
	d := time.Since(start)
	m.queryNanos.Add(d.Nanoseconds())
	m.queryBucket[latencyBucket(d)].Add(1)
}

// Absorb folds another Metrics' totals into m — the metrics half of a
// synopsis merge, so a merged engine's snapshot covers every shard's
// work. The operand must be quiescent (its updater stopped).
func (m *Metrics) Absorb(o *Metrics) {
	if m == nil || o == nil {
		return
	}
	m.trees.Add(o.trees.Load())
	m.patterns.Add(o.patterns.Load())
	m.removes.Add(o.removes.Load())
	m.queries.Add(o.queries.Load())
	m.queryErrors.Add(o.queryErrors.Load())
	m.queryNanos.Add(o.queryNanos.Load())
	for i := range m.queryBucket {
		m.queryBucket[i].Add(o.queryBucket[i].Load())
	}
	for i := range m.stages {
		m.stages[i].count.Add(o.stages[i].count.Load())
		m.stages[i].nanos.Add(o.stages[i].nanos.Load())
	}
}

// SeedCounts initializes the tree/pattern counters, aligning a
// restored engine's snapshot with its persisted TreesProcessed /
// PatternsProcessed.
func (m *Metrics) SeedCounts(trees, patterns int64) {
	if m == nil {
		return
	}
	m.trees.Store(trees)
	m.patterns.Store(patterns)
}

// StageSnapshot is one stage's totals.
type StageSnapshot struct {
	Count int64 // operations (patterns for per-pattern stages, documents for parse, merges for merge)
	Nanos int64 // total time spent, monotonic nanoseconds
}

// Duration returns the stage's total time.
func (s StageSnapshot) Duration() time.Duration { return time.Duration(s.Nanos) }

// PerOp returns the mean time per operation, or 0 when idle.
func (s StageSnapshot) PerOp() time.Duration {
	if s.Count <= 0 {
		return 0
	}
	return time.Duration(s.Nanos / s.Count)
}

// QuerySnapshot is the query-side totals: a counter pair plus the
// latency histogram (populated only while timers are enabled).
type QuerySnapshot struct {
	Count  int64 // queries answered (including failed)
	Errors int64 // queries that returned an error
	Nanos  int64 // total latency of successful timed queries
	// Buckets[i] counts successful queries with latency < 2^i µs
	// (non-cumulative); the last bucket is the overflow bucket.
	Buckets [NumLatencyBuckets]int64
}

// Timed returns the number of queries the histogram covers.
func (q QuerySnapshot) Timed() int64 {
	var n int64
	for _, b := range q.Buckets {
		n += b
	}
	return n
}

// TopKHealth is the frequent-pattern trackers' churn accounting,
// aggregated across virtual streams. All source counters are atomics,
// so the section is safe to collect while updates run.
type TopKHealth struct {
	Trackers    int   `json:"trackers"`     // trackers (virtual streams with tracking on)
	Capacity    int   `json:"capacity"`     // total entry capacity (k × trackers)
	Residency   int   `json:"residency"`    // values currently tracked
	Promotions  int64 `json:"promotions"`   // lifetime admissions (including refreshes)
	Evictions   int64 `json:"evictions"`    // lifetime minimum-entry displacements
	MinFreq     int64 `json:"min_freq"`     // smallest tracked frequency across trackers (0 when none)
	DeletedMass int64 `json:"deleted_mass"` // instance mass currently deleted from the sketches
}

// HealthSnapshot is the estimator-health section of a Snapshot:
// per-virtual-stream occupancy, the skew of the partition, and top-k
// churn. It carries only data readable from atomics — sketch-derived
// diagnostics (L2 energy) live in the engine-level health report,
// which requires quiescence or a lock.
type HealthSnapshot struct {
	VirtualStreams int     // the partition width p
	Items          []int64 // net occurrences per virtual stream
	TotalItems     int64   // Σ |Items|: total absolute stream mass
	MaxShare       float64 // largest partition's fraction of TotalItems
	MaxShareIndex  int     // which partition holds MaxShare
	SkewRatio      float64 // MaxShare × p; 1 means perfectly uniform
	TopK           *TopKHealth
}

// Recompute refreshes the derived skew fields (TotalItems, MaxShare,
// MaxShareIndex, SkewRatio) from Items. Producers call it after
// filling Items.
func (h *HealthSnapshot) Recompute() {
	h.TotalItems, h.MaxShare, h.MaxShareIndex, h.SkewRatio = 0, 0, 0, 0
	var maxAbs int64
	for i, it := range h.Items {
		a := it
		if a < 0 {
			a = -a
		}
		h.TotalItems += a
		if a > maxAbs {
			maxAbs, h.MaxShareIndex = a, i
		}
	}
	if h.TotalItems > 0 {
		h.MaxShare = float64(maxAbs) / float64(h.TotalItems)
		h.SkewRatio = h.MaxShare * float64(h.VirtualStreams)
	}
}

// AuditSnapshot is the exact-shadow auditor's section of a Snapshot:
// sample occupancy read live from atomics, and the relative-error
// summary of the most recent audit report (zero until one has been
// computed — computing errors needs sketch reads, which require the
// query path's locking).
type AuditSnapshot struct {
	Capacity int   // configured sample size K
	Patterns int   // values currently audited
	Observed int64 // net occurrences the sample was drawn over

	Reported   bool    // whether an audit report has been computed yet
	MeanRelErr float64 // over the audited sample, at last report
	P50RelErr  float64
	P90RelErr  float64
	P99RelErr  float64
	MaxRelErr  float64
}

// PlanCacheSnapshot is the query-plan cache section of a Snapshot: the
// LRU that memoizes the pattern → fingerprint-value mapping on the
// query path. All source counters are atomics, so the section is safe
// to collect while queries run.
type PlanCacheSnapshot struct {
	Capacity int   // configured entry capacity
	Entries  int   // plans currently cached
	Hits     int64 // lookups answered from the cache
	Misses   int64 // lookups that computed the plan
}

// WindowSliceSnapshot is one live slice's occupancy and age in the
// sliding-window section.
type WindowSliceSnapshot struct {
	Trees    int64 `json:"trees"`    // trees in this slice (net of removals)
	Patterns int64 `json:"patterns"` // pattern occurrences in this slice
	AgeMS    int64 `json:"age_ms"`   // slice age (now − slice start)
	Current  bool  `json:"current"`  // true for the slice receiving updates
}

// WindowSnapshot is the sliding-window section of a Snapshot: the
// policy, the live ring (oldest first), the published merged state's
// provenance, and the lifecycle counters. Produced by the window
// engine; nil on landmark (non-windowed) engines.
type WindowSnapshot struct {
	Slices     int   `json:"slices"`                 // ring capacity
	SliceTrees int   `json:"slice_trees,omitempty"`  // count cadence (0 = off)
	SliceDurMS int64 `json:"slice_dur_ms,omitempty"` // clock cadence (0 = off)

	Live      []WindowSliceSnapshot `json:"live"`       // live slices, oldest first
	LiveTrees int64                 `json:"live_trees"` // Σ Live[i].Trees

	MergedTrees  int64 `json:"merged_trees"`  // trees the published merge covers
	MergedSlices int   `json:"merged_slices"` // slices merged into it
	MergedAgeMS  int64 `json:"merged_age_ms"` // age of the published merge

	Advances int64 `json:"advances"` // slices sealed
	Expires  int64 `json:"expires"`  // slices dropped off the ring
	Rebuilds int64 `json:"rebuilds"` // merged states published
}

// Snapshot is a point-in-time read of a Metrics value (see the package
// comment for its consistency contract).
type Snapshot struct {
	TimersEnabled bool

	Trees    int64 // trees folded in (net of removals)
	Patterns int64 // pattern occurrences (the 1-D stream length, net)
	Removes  int64 // RemoveTree calls

	Stages  [NumStages]StageSnapshot
	Queries QuerySnapshot

	// Health, Audit, Plans and Window are attached by the engine (they
	// read engine structures, not Metrics); nil when the producing
	// layer does not collect them.
	Health *HealthSnapshot
	Audit  *AuditSnapshot
	Plans  *PlanCacheSnapshot
	Window *WindowSnapshot
}

// Snapshot reads the current totals. Safe to call concurrently with
// updates; a nil receiver yields the zero Snapshot.
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	if m == nil {
		return s
	}
	s.TimersEnabled = m.timers.Load()
	s.Trees = m.trees.Load()
	s.Patterns = m.patterns.Load()
	s.Removes = m.removes.Load()
	s.Queries.Count = m.queries.Load()
	s.Queries.Errors = m.queryErrors.Load()
	s.Queries.Nanos = m.queryNanos.Load()
	for i := range s.Queries.Buckets {
		s.Queries.Buckets[i] = m.queryBucket[i].Load()
	}
	for i := range s.Stages {
		s.Stages[i].Count = m.stages[i].count.Load()
		s.Stages[i].Nanos = m.stages[i].nanos.Load()
	}
	return s
}

// Stage returns one stage's totals by index.
func (s Snapshot) Stage(st Stage) StageSnapshot { return s.Stages[st] }

// Add folds another snapshot's totals into s — aggregation across
// ingestion shards.
func (s *Snapshot) Add(o Snapshot) {
	s.TimersEnabled = s.TimersEnabled || o.TimersEnabled
	s.Trees += o.Trees
	s.Patterns += o.Patterns
	s.Removes += o.Removes
	s.Queries.Count += o.Queries.Count
	s.Queries.Errors += o.Queries.Errors
	s.Queries.Nanos += o.Queries.Nanos
	for i := range s.Queries.Buckets {
		s.Queries.Buckets[i] += o.Queries.Buckets[i]
	}
	for i := range s.Stages {
		s.Stages[i].Count += o.Stages[i].Count
		s.Stages[i].Nanos += o.Stages[i].Nanos
	}
	s.Health = mergeHealth(s.Health, o.Health)
	if s.Audit == nil {
		s.Audit = o.Audit
	}
	s.Plans = mergePlans(s.Plans, o.Plans)
	// Window sections have no meaningful union (each describes one
	// engine's ring); keep the first one seen, like Audit.
	if s.Window == nil {
		s.Window = o.Window
	}
}

// mergePlans folds two plan-cache sections: hit/miss totals and entry
// counts sum across shards; the capacity reported is the receiver's
// (shards share one config).
func mergePlans(a, b *PlanCacheSnapshot) *PlanCacheSnapshot {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := *a
	out.Entries += b.Entries
	out.Hits += b.Hits
	out.Misses += b.Misses
	return &out
}

// mergeHealth folds two health sections: per-partition items sum when
// the partition widths agree (ingestion shards share one config), and
// the derived skew fields are recomputed. Mismatched widths keep the
// receiver's section — there is no meaningful union.
func mergeHealth(a, b *HealthSnapshot) *HealthSnapshot {
	if a == nil {
		return b
	}
	if b == nil || b.VirtualStreams != a.VirtualStreams {
		return a
	}
	out := &HealthSnapshot{
		VirtualStreams: a.VirtualStreams,
		Items:          make([]int64, len(a.Items)),
	}
	copy(out.Items, a.Items)
	for i := range b.Items {
		out.Items[i] += b.Items[i]
	}
	out.Recompute()
	switch {
	case a.TopK == nil:
		out.TopK = b.TopK
	case b.TopK == nil:
		out.TopK = a.TopK
	default:
		tk := *a.TopK
		tk.Trackers += b.TopK.Trackers
		tk.Capacity += b.TopK.Capacity
		tk.Residency += b.TopK.Residency
		tk.Promotions += b.TopK.Promotions
		tk.Evictions += b.TopK.Evictions
		tk.DeletedMass += b.TopK.DeletedMass
		if b.TopK.MinFreq > 0 && (tk.MinFreq == 0 || b.TopK.MinFreq < tk.MinFreq) {
			tk.MinFreq = b.TopK.MinFreq
		}
		out.TopK = &tk
	}
	return out
}
