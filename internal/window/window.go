// Package window implements sliding-window counting over the streaming
// synopsis: a ring of chunked sub-synopses (one core.Engine per time
// slice), advanced on document count or wall clock, expired by dropping
// the oldest slice, and served by merging the live slices into one
// published engine.
//
// The construction rides on the same linearity that makes cluster merge
// exact: AMS sketches are linear projections, so the cell-wise integer
// sum of the live slices' counters IS the sketch of the live documents.
// The merged engine is therefore bit-identical — synopsis bytes and
// float64 estimates — to a fresh engine fed only the documents still
// inside the window, and everything downstream (the plan cache, the
// query path, snapshot-isolated serving, cluster pulls) applies to it
// unchanged.
//
// Concurrency: one mutex serializes all mutators (Add, Remove, Absorb,
// Advance, AdvanceDue, Refresh). Readers never take it — the ring is
// published copy-on-write behind an atomic pointer, per-slice tree
// counts are atomics, and the merged serving engine is a frozen engine
// published through a publish.Publisher — so Status, Trees and query
// serving are lock-free and never wait behind an in-flight ingest.
//
// The clock is injected (New's clock parameter); the merge/rebuild
// paths never read time.Now themselves, keeping the determinism
// contract auditable: two windows fed the same documents and the same
// advance calls hold identical synopses regardless of wall time.
package window

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sketchtree/internal/core"
	"sketchtree/internal/obs"
	"sketchtree/internal/publish"
	"sketchtree/internal/tree"
)

// Policy configures the sliding window.
type Policy struct {
	// Slices is the ring capacity: the window covers at most this many
	// slices; advancing while full expires (drops) the oldest. Must be
	// at least 1 (a 1-slice ring is a tumbling window).
	Slices int

	// SliceTrees seals the current slice after this many trees have
	// been added to it. 0 disables the count cadence.
	SliceTrees int

	// SliceDur seals the current slice after this wall-clock duration.
	// 0 disables the clock cadence. With both cadences zero the window
	// advances only on explicit Advance calls.
	SliceDur time.Duration

	// RefreshEveryTrees rebuilds the published merged engine after this
	// many updates between advances (every advance rebuilds regardless,
	// so expired documents leave the served state immediately). 0
	// selects DefaultRefreshEveryTrees; negative disables update-driven
	// rebuilds (advance/Refresh only). Served answers trail the live
	// window by at most this many updates.
	RefreshEveryTrees int
}

// DefaultRefreshEveryTrees is the merged-rebuild cadence selected by a
// zero Policy.RefreshEveryTrees.
const DefaultRefreshEveryTrees = 256

// slice is one chunk of the ring: a sub-synopsis plus its provenance.
// start is immutable after creation; trees is atomic so lock-free
// Status readers can report per-slice occupancy during ingest.
type slice struct {
	eng   *core.Engine
	start time.Time
	trees atomic.Int64
}

// Windowed is the sliding-window engine. Construct with New; the zero
// value is not valid.
type Windowed struct {
	pol      Policy
	clock    func() time.Time
	template *core.Engine // empty donor: shared seeds, modulus, plan cache
	met      *obs.Metrics // persistent serving metrics across rebuilds

	// pub serves the merged engine over the live slices; its count
	// cadence is RefreshEveryTrees and its publish count is the
	// rebuild counter.
	pub *publish.Publisher[*core.Engine]

	mu     sync.Mutex // serializes all mutators
	timers bool       // stage-timer flag applied to new slices

	ring atomic.Pointer[[]*slice] // live slices, oldest first; last = current

	advances atomic.Int64
	expires  atomic.Int64
}

// New builds a sliding window over template's configuration. The
// template engine must be empty (zero trees): it donates the ξ seeds,
// the fingerprint modulus and the query-plan cache to every slice and
// merged engine (via Clone), and is never updated afterwards.
//
// Configurations that break the slice merge are rejected here, at
// enable time, with the same reasoning cluster mode applies: top-k
// trackers interleave deletions into the counters with no well-defined
// union, the exact baseline cannot forget an expired slice's counts
// bit-exactly, and an exact-shadow auditor's sample is drawn over one
// engine's stream. TopK must be 0, TrackExact false, and no auditor
// attached.
//
// clock supplies wall time for the SliceDur cadence and provenance
// ages; nil selects time.Now. The merge and rebuild paths only ever
// read the injected clock, never the real one.
func New(template *core.Engine, pol Policy, clock func() time.Time) (*Windowed, error) {
	if template == nil {
		return nil, fmt.Errorf("window: nil template engine")
	}
	cfg := template.Config()
	if cfg.TopK != 0 {
		return nil, fmt.Errorf("window: Config.TopK %d != 0: top-k synopses cannot be merged, so slices cannot form a window", cfg.TopK)
	}
	if cfg.TrackExact {
		return nil, fmt.Errorf("window: Config.TrackExact is set: the exact baseline cannot drop an expired slice's counts")
	}
	if template.AuditEnabled() {
		return nil, fmt.Errorf("window: an exact-shadow auditor is attached: its sample has no well-defined union across slices")
	}
	if n := template.TreesProcessed(); n != 0 {
		return nil, fmt.Errorf("window: engine already holds %d trees; enable the window before any tree is added", n)
	}
	if pol.Slices < 1 {
		return nil, fmt.Errorf("window: Policy.Slices %d < 1", pol.Slices)
	}
	if pol.SliceTrees < 0 {
		return nil, fmt.Errorf("window: Policy.SliceTrees %d < 0", pol.SliceTrees)
	}
	if pol.SliceDur < 0 {
		return nil, fmt.Errorf("window: Policy.SliceDur %v < 0", pol.SliceDur)
	}
	if pol.RefreshEveryTrees == 0 {
		pol.RefreshEveryTrees = DefaultRefreshEveryTrees
	}
	if clock == nil {
		clock = time.Now
	}
	w := &Windowed{
		pol:      pol,
		clock:    clock,
		template: template,
		met:      &obs.Metrics{},
		pub:      publish.New[*core.Engine](pol.RefreshEveryTrees),
		timers:   template.Metrics().TimersOn(),
	}
	w.met.EnableTimers(w.timers)
	first, err := w.newSliceLocked(clock())
	if err != nil {
		return nil, err
	}
	ring := []*slice{first}
	w.ring.Store(&ring)
	if err := w.rebuildLocked(); err != nil {
		return nil, err
	}
	return w, nil
}

// Publisher returns the publisher serving the merged engine. Never
// nil, and never empty after New succeeds.
func (w *Windowed) Publisher() *publish.Publisher[*core.Engine] { return w.pub }

// Metrics returns the persistent serving metrics: the sink the merged
// engine reports queries through, and where producers should attribute
// parse time in window mode.
func (w *Windowed) Metrics() *obs.Metrics { return w.met }

// EnableTimers switches stage/latency timing on every slice, the
// serving metrics, and slices created later.
func (w *Windowed) EnableTimers(on bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.timers = on
	w.met.EnableTimers(on)
	for _, sl := range *w.ring.Load() {
		sl.eng.Metrics().EnableTimers(on)
	}
}

// curLocked returns the current (newest) slice. Caller holds w.mu.
//
//lint:hotpath
func (w *Windowed) curLocked() *slice {
	r := *w.ring.Load()
	return r[len(r)-1]
}

// newSliceLocked clones the empty template into a fresh slice engine
// with its own metrics sink. Caller holds w.mu (or is New).
func (w *Windowed) newSliceLocked(start time.Time) (*slice, error) {
	eng, err := w.template.Clone()
	if err != nil {
		return nil, fmt.Errorf("window: new slice: %w", err)
	}
	m := &obs.Metrics{}
	m.EnableTimers(w.timers)
	eng.SetMetrics(m)
	return &slice{eng: eng, start: start}, nil
}

// Add folds one tree into the current slice, advancing first if the
// clock cadence is due and afterwards if the count cadence fills the
// slice.
//
//lint:hotpath
func (w *Windowed) Add(t *tree.Tree) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.advanceDueLocked(); err != nil {
		return err
	}
	cur := w.curLocked()
	if err := cur.eng.AddTree(t); err != nil {
		return err
	}
	cur.trees.Add(1)
	if w.pol.SliceTrees > 0 && cur.trees.Load() >= int64(w.pol.SliceTrees) {
		return w.advanceAtLocked(w.clock()) //lint:allow hotpath slice rotation is the cadence boundary, amortized over SliceTrees updates
	}
	return w.noteUpdateLocked()
}

// Remove deletes one earlier occurrence of the tree from the current
// slice (the AMS deletion property). Removals target the current slice
// only: a document that has rotated into an older slice leaves the
// window by expiry, not by deletion.
func (w *Windowed) Remove(t *tree.Tree) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.advanceDueLocked(); err != nil {
		return err
	}
	cur := w.curLocked()
	if err := cur.eng.RemoveTree(t); err != nil {
		return err
	}
	cur.trees.Add(-1)
	return w.noteUpdateLocked()
}

// Absorb merges a foreign engine's synopsis into the current slice —
// the fan-in half of parallel ingestion, windowed. The operand must
// satisfy the usual merge preconditions (identical Config including
// Seed, no top-k, no auditor) and is only read.
func (w *Windowed) Absorb(o *core.Engine) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.advanceDueLocked(); err != nil {
		return err
	}
	cur := w.curLocked()
	before := cur.eng.TreesProcessed()
	if err := cur.eng.Merge(o); err != nil {
		return err
	}
	cur.trees.Add(cur.eng.TreesProcessed() - before)
	return w.noteUpdateLocked()
}

// Advance seals the current slice and starts a fresh one now,
// expiring the oldest slice when the ring is full. The merged serving
// state is rebuilt before returning.
func (w *Windowed) Advance() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.advanceAtLocked(w.clock())
}

// AdvanceDue advances every slice the clock cadence has made due — the
// entry point for the background ticker that keeps an idle stream's
// window expiring. A no-op without a clock cadence.
func (w *Windowed) AdvanceDue() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.advanceDueLocked()
}

// Refresh rebuilds the published merged engine from the live slices
// immediately, regardless of the rebuild cadence.
func (w *Windowed) Refresh() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rebuildLocked()
}

// advanceDueLocked advances once per elapsed SliceDur, with slice
// starts aligned to the cadence grid so a busy advance never drifts.
// After a long idle gap every live slice has expired: rather than
// rotating the ring Slices more times, the window resets to a single
// fresh slice. Caller holds w.mu.
//
//lint:hotpath
func (w *Windowed) advanceDueLocked() error {
	if w.pol.SliceDur <= 0 {
		return nil
	}
	now := w.clock()
	for n := 0; ; n++ {
		cur := w.curLocked()
		if now.Sub(cur.start) < w.pol.SliceDur {
			return nil
		}
		if n >= w.pol.Slices {
			//lint:allow hotpath full reset after an idle gap longer than the window, not the per-update path
			return w.resetLocked(now)
		}
		//lint:allow hotpath clock-cadence rotation, amortized over a slice's lifetime
		if err := w.advanceAtLocked(cur.start.Add(w.pol.SliceDur)); err != nil {
			return err
		}
	}
}

// advanceAtLocked seals the current slice and appends a fresh one
// starting at start, dropping the oldest slice when the ring is at
// capacity. The ring is replaced copy-on-write so lock-free Status
// readers always see a consistent slice list. Caller holds w.mu.
func (w *Windowed) advanceAtLocked(start time.Time) error {
	fresh, err := w.newSliceLocked(start)
	if err != nil {
		return err
	}
	r := *w.ring.Load()
	keep := r
	if len(r) >= w.pol.Slices {
		drop := len(r) - w.pol.Slices + 1
		keep = r[drop:]
		w.expires.Add(int64(drop))
	}
	next := make([]*slice, 0, len(keep)+1)
	next = append(next, keep...)
	next = append(next, fresh)
	w.ring.Store(&next)
	w.advances.Add(1)
	return w.rebuildLocked()
}

// resetLocked replaces the whole ring with one fresh slice — the idle
// catch-up path where every live slice has already expired. Caller
// holds w.mu.
func (w *Windowed) resetLocked(start time.Time) error {
	fresh, err := w.newSliceLocked(start)
	if err != nil {
		return err
	}
	old := *w.ring.Load()
	ring := []*slice{fresh}
	w.ring.Store(&ring)
	w.advances.Add(1)
	w.expires.Add(int64(len(old)))
	return w.rebuildLocked()
}

// noteUpdateLocked ticks the update counter and rebuilds the merged
// serving state when the refresh cadence is reached. Caller holds w.mu.
//
//lint:hotpath
func (w *Windowed) noteUpdateLocked() error {
	if !w.pub.Note() {
		return nil
	}
	//lint:allow hotpath merged-state rebuild at the refresh cadence, amortized
	return w.rebuildLocked()
}

// rebuildLocked merges the live slices into a fresh engine and
// publishes it, restarting the refresh cadence. The engine starts as a
// clone of the empty template (so it shares the seeds, modulus and
// plan cache) with a scratch metrics sink — Merge absorbs each
// operand's metrics into the receiver's, and that absorption must not
// touch the slices' own counters or the persistent serving sink. After
// the merge the persistent sink is re-seeded with the merged totals
// and swapped in, so query accounting survives across rebuilds. Caller
// holds w.mu.
//
// Because the slices' stream counters are integers and the merge is a
// cell-wise sum, the published engine is bit-identical — bytes and
// estimates — to a fresh engine fed the live documents in order.
func (w *Windowed) rebuildLocked() error {
	start := w.met.Now()
	m, err := w.template.Clone()
	if err != nil {
		return fmt.Errorf("window: rebuild: %w", err)
	}
	m.SetMetrics(nil)
	r := *w.ring.Load()
	for _, sl := range r {
		if err := m.Merge(sl.eng); err != nil {
			return fmt.Errorf("window: rebuild: %w", err)
		}
	}
	w.met.SeedCounts(m.TreesProcessed(), m.PatternsProcessed())
	m.SetMetrics(w.met)
	w.pub.Publish(publish.State[*core.Engine]{
		Value: m,
		Trees: m.TreesProcessed(),
		Parts: len(r),
		Built: w.clock(),
	})
	w.met.StageSince(obs.StagePublish, start)
	return nil
}

// Trees returns the number of trees currently live in the window
// (net of removals), summed across slices. Lock-free.
func (w *Windowed) Trees() int64 {
	var n int64
	for _, sl := range *w.ring.Load() {
		n += sl.trees.Load()
	}
	return n
}

// Patterns returns the live window's pattern-occurrence total (the
// one-dimensional stream length), summed across slices. Lock-free.
func (w *Windowed) Patterns() int64 {
	var n int64
	for _, sl := range *w.ring.Load() {
		n += sl.eng.Metrics().Snapshot().Patterns
	}
	return n
}

// Status collects the window section of the observability snapshot:
// per-slice occupancy and age, merged provenance, and the
// advance/expire/rebuild counters. Lock-free — safe to call while
// ingest runs.
func (w *Windowed) Status() *obs.WindowSnapshot {
	now := w.clock()
	r := *w.ring.Load()
	ws := &obs.WindowSnapshot{
		Slices:     w.pol.Slices,
		SliceTrees: w.pol.SliceTrees,
		SliceDurMS: w.pol.SliceDur.Milliseconds(),
		Advances:   w.advances.Load(),
		Expires:    w.expires.Load(),
	}
	for i, sl := range r {
		t := sl.trees.Load()
		ws.LiveTrees += t
		ws.Live = append(ws.Live, obs.WindowSliceSnapshot{
			Trees:    t,
			Patterns: sl.eng.Metrics().Snapshot().Patterns,
			AgeMS:    now.Sub(sl.start).Milliseconds(),
			Current:  i == len(r)-1,
		})
	}
	m := w.pub.Load()
	ws.MergedTrees = m.Trees
	ws.MergedSlices = m.Parts
	ws.MergedAgeMS = now.Sub(m.Built).Milliseconds()
	ws.Rebuilds = m.Seq
	return ws
}

// Stats reads the serving observability snapshot — the merged engine's
// counters (queries, stages, health, plan cache) with the window
// section attached. Lock-free.
func (w *Windowed) Stats() obs.Snapshot {
	s := w.pub.Load().Value.Stats()
	s.Window = w.Status()
	return s
}

// MarshalBinary serializes the published merged window — the windowed
// shard's half of the cluster pull protocol, and a checkpoint of the
// live window trailing it by at most the rebuild cadence.
func (w *Windowed) MarshalBinary() ([]byte, error) { return w.pub.Load().Value.MarshalBinary() }

// HealthReport diagnoses the published merged window (the frozen
// engine, so no locking is needed).
func (w *Windowed) HealthReport() core.HealthReport { return w.pub.Load().Value.HealthReport() }

// MemoryBytes reports the published merged engine's footprint (each
// live slice adds roughly the same again).
func (w *Windowed) MemoryBytes() core.Memory { return w.pub.Load().Value.MemoryBytes() }
