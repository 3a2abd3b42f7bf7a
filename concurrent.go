package sketchtree

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"sketchtree/internal/core"
	"sketchtree/internal/obs"
	"sketchtree/internal/publish"
	"sketchtree/internal/window"
)

// Safe wraps a SketchTree for concurrent use: updates take the write
// lock, queries the read lock. Queries are pure reads of the synopsis,
// so any number may run concurrently between updates.
//
// EnableSnapshots and EnableWindow switch the Count*/Estimate* reads
// to a lock-free path over a published frozen engine — see
// SnapshotPolicy and WindowPolicy.
//
// The zero Safe is not valid; construct with NewSafe.
type Safe struct {
	mu sync.RWMutex
	st *SketchTree

	// trees mirrors the live synopsis's tree count. Every landmark
	// write path stores it under the write lock, so TreesProcessed
	// never waits behind an update.
	trees atomic.Int64

	// mode is the serving mode (see snapshot.go and window.go): nil on
	// the locked landmark path. modeMu serializes Enable*/Disable*.
	modeMu sync.Mutex
	mode   atomic.Pointer[serving]
}

// serving is one enabled serving mode: the publisher whose state
// answers the lock-free reads, and the sliding window that routes
// updates while window serving is on (nil for snapshot serving).
type serving struct {
	pub *publish.Publisher[*core.Engine]
	win *window.Windowed
}

// NewSafe creates a concurrency-safe SketchTree.
func NewSafe(cfg Config) (*Safe, error) {
	st, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &Safe{st: st}, nil
}

// RestoreSafe reconstructs a concurrency-safe SketchTree from
// MarshalBinary output.
func RestoreSafe(data []byte) (*Safe, error) {
	st, err := Restore(data)
	if err != nil {
		return nil, err
	}
	s := &Safe{st: st}
	s.trees.Store(st.TreesProcessed())
	return s, nil
}

// AddTree folds one tree into the synopsis (into the current window
// slice while the window is enabled).
func (s *Safe) AddTree(t *Tree) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if w := s.windowed(); w != nil {
		return w.Add(t)
	}
	return s.updatedLocked(s.st.AddTree(t))
}

// RemoveTree deletes one earlier occurrence of the tree (from the
// current window slice while the window is enabled — a document that
// has rotated into an older slice leaves by expiry, not deletion).
func (s *Safe) RemoveTree(t *Tree) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if w := s.windowed(); w != nil {
		return w.Remove(t)
	}
	return s.updatedLocked(s.st.RemoveTree(t))
}

// AddXML parses one XML document (outside the lock) and folds it into
// the synopsis under the write lock.
func (s *Safe) AddXML(r io.Reader) error {
	t, err := ParseXML(r)
	if err != nil {
		return err
	}
	return s.AddTree(t)
}

// AddXMLForest streams every tree of a rooted XML forest document into
// the synopsis. The write lock is taken per tree, so queries and other
// updates interleave with a long-running forest load; the forest is
// not applied atomically.
func (s *Safe) AddXMLForest(r io.Reader) error {
	_, err := s.AddXMLForestCount(r)
	return err
}

// AddXMLForestCount is AddXMLForest reporting how many trees were
// applied before any error. Because the forest is committed tree by
// tree, a mid-stream failure leaves the applied prefix in the synopsis
// — the count is the client's reconciliation contract (see the
// /ingest?forest=1 error body in internal/server).
func (s *Safe) AddXMLForestCount(r io.Reader) (int64, error) {
	var applied int64
	err := streamForestTimed(s.ingestMetrics(), r, func(t *Tree) error {
		if err := s.AddTree(t); err != nil {
			return err
		}
		applied++
		return nil
	})
	return applied, err
}

// ingestMetrics returns the sink producers should attribute parse time
// to: the window's persistent serving metrics while the window is
// enabled, the live engine's otherwise. Both are atomic counter
// blocks, never mutable sketch state, so no lock is needed.
func (s *Safe) ingestMetrics() *obs.Metrics {
	if w := s.windowed(); w != nil {
		return w.Metrics()
	}
	return s.st.e.Metrics()
}

// EnableMetrics switches stage timers and query-latency measurement on
// or off (see SketchTree.EnableMetrics).
func (s *Safe) EnableMetrics(on bool) {
	// The metrics flag is itself atomic; no lock needed.
	//lint:allow lockdiscipline EnableMetrics only flips the obs layer's atomic flag; taking s.mu would stall behind long updates for nothing
	s.st.EnableMetrics(on)
	if w := s.windowed(); w != nil {
		w.EnableTimers(on)
	}
}

// Stats reads the observability snapshot (the merged window engine's,
// with the Window section attached, while the window is enabled). The
// counters are atomics, so no lock is taken: Stats never blocks behind
// a long update.
func (s *Safe) Stats() Stats {
	if w := s.windowed(); w != nil {
		return w.Stats()
	}
	//lint:allow lockdiscipline Stats reads only the obs layer's atomic counters; lock-freedom is the documented point of the method
	return s.st.Stats()
}

// Merge folds a plain SketchTree's synopsis into this one under the
// write lock — the fan-in half of parallel ingestion (see Ingestor and
// SketchTree.Merge for the preconditions: identical Config including
// Seed, top-k tracking disabled on both operands). The operand is only
// read, but it is not locked: it must not be mutated concurrently.
func (s *Safe) Merge(o *SketchTree) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if w := s.windowed(); w != nil {
		return w.Absorb(o.e)
	}
	return s.updatedLocked(s.st.Merge(o))
}

// updatedLocked finishes a landmark update under the write lock: it
// mirrors the live tree count for TreesProcessed and counts a
// successful update against the snapshot cadence. A publish error
// keeps the previous snapshot serving until the next update retries;
// RefreshSnapshot reports it.
func (s *Safe) updatedLocked(err error) error {
	s.trees.Store(s.st.e.TreesProcessed())
	if err != nil {
		return err
	}
	if m := s.mode.Load(); m != nil && m.pub.Note() {
		_ = s.publishLocked(m.pub)
	}
	return nil
}

// windowed returns the sliding window while window serving is on, else
// nil.
func (s *Safe) windowed() *window.Windowed {
	if m := s.mode.Load(); m != nil {
		return m.win
	}
	return nil
}

// reader returns the engine a read runs against: the published frozen
// engine while snapshot or window serving is on, else the live engine
// with the read lock held. Pair every call with a deferred release.
//
//lint:hotpath
func (s *Safe) reader() *core.Engine {
	if sv := s.served(); sv != nil {
		return sv.Value
	}
	s.mu.RLock()
	return s.st.e
}

// release ends a read begun by reader, dropping the read lock when e
// is the live engine (a published engine is a clone or a merge, never
// the live one).
//
//lint:hotpath
func (s *Safe) release(e *core.Engine) {
	if e == s.st.e {
		s.mu.RUnlock()
	}
}

// CountOrdered estimates COUNT_ord(Q).
func (s *Safe) CountOrdered(q *Node) (float64, error) {
	eng := s.reader()
	defer s.release(eng)
	return eng.EstimateOrdered(q)
}

// CountUnordered estimates COUNT(Q).
func (s *Safe) CountUnordered(q *Node) (float64, error) {
	eng := s.reader()
	defer s.release(eng)
	return eng.EstimateUnordered(q)
}

// CountOrderedSet estimates the total frequency of distinct patterns.
func (s *Safe) CountOrderedSet(qs []*Node) (float64, error) {
	eng := s.reader()
	defer s.release(eng)
	return eng.EstimateOrderedSet(qs)
}

// CountOrderedWithError is CountOrdered with an error bar.
func (s *Safe) CountOrderedWithError(q *Node) (Estimate, error) {
	eng := s.reader()
	defer s.release(eng)
	return eng.EstimateOrderedWithError(q)
}

// CountUnorderedWithError is CountUnordered with an error bar.
func (s *Safe) CountUnorderedWithError(q *Node) (Estimate, error) {
	eng := s.reader()
	defer s.release(eng)
	return eng.EstimateUnorderedWithError(q)
}

// CountOrderedSetWithError is CountOrderedSet with an error bar.
func (s *Safe) CountOrderedSetWithError(qs []*Node) (Estimate, error) {
	eng := s.reader()
	defer s.release(eng)
	return eng.EstimateOrderedSetWithError(qs)
}

// HealthReport diagnoses the synopsis under the read lock (it reads
// the sketch counters, unlike the lock-free Stats). While the window
// is enabled it diagnoses the published merged engine, lock-free (the
// merge is frozen).
func (s *Safe) HealthReport() HealthReport {
	if w := s.windowed(); w != nil {
		return w.HealthReport()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.st.HealthReport()
}

// EnableAudit attaches the exact-shadow auditor; must run before any
// tree is added, and is mutually exclusive with window serving (the
// auditor's sample has no well-defined union across slices).
func (s *Safe) EnableAudit(k int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.windowed() != nil {
		return fmt.Errorf("sketchtree: audit and window serving are mutually exclusive")
	}
	return s.st.EnableAudit(k)
}

// AuditEnabled reports whether the exact-shadow auditor is attached.
func (s *Safe) AuditEnabled() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.st.AuditEnabled()
}

// AuditReport scores the audited sample against the live sketch under
// the read lock.
func (s *Safe) AuditReport() (AuditReport, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.st.AuditReport()
}

// EstimateExpression estimates a +, −, × expression over counts.
func (s *Safe) EstimateExpression(e Expr) (float64, error) {
	eng := s.reader()
	defer s.release(eng)
	return eng.EstimateExpr(e)
}

// CountExtended estimates a wildcard/descendant query.
func (s *Safe) CountExtended(q *ExtQuery) (float64, bool, error) {
	eng := s.reader()
	defer s.release(eng)
	return eng.EstimateExtended(q)
}

// TreesProcessed returns the number of trees folded in (live inside
// the window, while the window is enabled). Lock-free: it never waits
// behind an update.
func (s *Safe) TreesProcessed() int64 {
	if w := s.windowed(); w != nil {
		return w.Trees()
	}
	return s.trees.Load()
}

// PatternsProcessed returns the one-dimensional stream length (live
// inside the window, while the window is enabled).
func (s *Safe) PatternsProcessed() int64 {
	if w := s.windowed(); w != nil {
		return w.Patterns()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.st.PatternsProcessed()
}

// MemoryBytes reports the synopsis footprint (the merged window
// engine's, while the window is enabled; each live slice adds roughly
// the same again).
func (s *Safe) MemoryBytes() Memory {
	if w := s.windowed(); w != nil {
		return w.MemoryBytes()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.st.MemoryBytes()
}

// FrequentPatterns returns the tracked heavy hitters.
func (s *Safe) FrequentPatterns() []FrequentPattern {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.st.FrequentPatterns()
}

// CountAlternatives estimates a pattern with '|'-separated label
// alternatives.
func (s *Safe) CountAlternatives(q *Node) (float64, error) {
	eng := s.reader()
	defer s.release(eng)
	return eng.EstimateAlternations(q)
}

// CountOrderedUpperBound bounds COUNT_ord(Q) for patterns larger than
// Config.MaxPatternEdges.
func (s *Safe) CountOrderedUpperBound(q *Node) (float64, error) {
	eng := s.reader()
	defer s.release(eng)
	return eng.EstimateOrderedUpperBound(q)
}

// EstimateSelfJoinSize estimates SJ(S) = Σ f² of the pattern stream.
func (s *Safe) EstimateSelfJoinSize(compensated bool) float64 {
	eng := s.reader()
	defer s.release(eng)
	return eng.EstimateSelfJoinSize(compensated)
}

// Config returns the effective (normalized) configuration.
func (s *Safe) Config() Config {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.st.Config()
}

// MarshalBinary serializes the synopsis under the read lock. While the
// window is enabled it serializes the published merged window,
// lock-free — the windowed shard's half of the cluster pull protocol,
// trailing the live ring by at most the rebuild cadence.
func (s *Safe) MarshalBinary() ([]byte, error) {
	if w := s.windowed(); w != nil {
		return w.MarshalBinary()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.st.MarshalBinary()
}

// Save writes the serialized synopsis to w. The snapshot is taken
// under the read lock; the write to w happens outside it, so a slow
// writer does not block updates.
func (s *Safe) Save(w io.Writer) error {
	data, err := s.MarshalBinary()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}
