package sketchtree

import (
	"fmt"
	"time"

	"sketchtree/internal/core"
	"sketchtree/internal/obs"
	"sketchtree/internal/publish"
)

// SnapshotPolicy configures Safe snapshot serving: how often the
// frozen read snapshot is refreshed from the live synopsis.
type SnapshotPolicy struct {
	// EveryTrees refreshes the snapshot after this many synopsis
	// updates (AddTree, RemoveTree or Merge calls). 0 selects
	// DefaultSnapshotEveryTrees; the bound is exact — a served answer is
	// never more than EveryTrees updates behind the live synopsis.
	EveryTrees int

	// MaxAge additionally refreshes the snapshot in the background at
	// this period while updates have occurred since the last refresh,
	// so a stalled stream still converges to the live state. 0 disables
	// the timer (refreshes happen only on the update path and via
	// RefreshSnapshot).
	MaxAge time.Duration
}

// DefaultSnapshotEveryTrees is the refresh interval selected by a zero
// SnapshotPolicy.EveryTrees.
const DefaultSnapshotEveryTrees = 1000

// EnableSnapshots switches Safe into snapshot-isolated query serving:
// a frozen deep copy of the synopsis is published behind an atomic
// pointer and refreshed per the policy, and every Count*/Estimate*
// read is answered lock-free from the current snapshot — queries never
// block behind an in-flight update, and updates never wait for
// queries. Ingestion pays the refresh cost (one synopsis copy every
// EveryTrees updates).
//
// Answers are bit-identical to the locked path evaluated at the
// snapshot's refresh point; the staleness bound is EveryTrees updates
// (or MaxAge, whichever refresh fires first). Reads that inspect the
// live update state — Stats, HealthReport, AuditReport,
// FrequentPatterns, TreesProcessed, MarshalBinary — still report the
// live synopsis.
//
// Serving is opt-in and off by default. Enabling twice is an error;
// call DisableSnapshots first to change the policy.
func (s *Safe) EnableSnapshots(p SnapshotPolicy) error {
	if p.EveryTrees < 0 {
		return fmt.Errorf("sketchtree: SnapshotPolicy.EveryTrees %d < 0", p.EveryTrees)
	}
	if p.MaxAge < 0 {
		return fmt.Errorf("sketchtree: SnapshotPolicy.MaxAge %v < 0", p.MaxAge)
	}
	if p.EveryTrees == 0 {
		p.EveryTrees = DefaultSnapshotEveryTrees
	}
	s.modeMu.Lock()
	defer s.modeMu.Unlock()
	if m := s.mode.Load(); m != nil {
		if m.win != nil {
			return fmt.Errorf("sketchtree: snapshot serving and window serving are mutually exclusive (the window publishes its own merged snapshot)")
		}
		return fmt.Errorf("sketchtree: snapshots already enabled")
	}
	pub := publish.New[*core.Engine](p.EveryTrees)
	s.mu.RLock()
	err := s.publishLocked(pub)
	s.mu.RUnlock()
	if err != nil {
		return err
	}
	if p.MaxAge > 0 {
		// While updates have occurred since the last publish, republish
		// each period, so a paused stream's tail becomes visible without
		// waiting for EveryTrees more updates.
		pub.Tick(p.MaxAge, func() {
			if !pub.Pending() {
				return
			}
			s.mu.RLock()
			defer s.mu.RUnlock()
			_ = s.publishLocked(pub)
		})
	}
	s.mode.Store(&serving{pub: pub})
	return nil
}

// DisableSnapshots stops snapshot serving: the background refresher
// (if any) is joined, the snapshot is released, and reads return to
// the locked path. A no-op when snapshots are not enabled.
func (s *Safe) DisableSnapshots() { s.disable(false) }

// disable turns the serving mode off if it is the named one (window or
// snapshots): reads return to the locked path, then the mode's ticker
// goroutine, if any, is joined.
func (s *Safe) disable(window bool) {
	s.modeMu.Lock()
	defer s.modeMu.Unlock()
	if m := s.mode.Load(); m != nil && (m.win != nil) == window {
		s.mode.Store(nil)
		m.pub.Close()
	}
}

// RefreshSnapshot rebuilds the served snapshot from the live synopsis
// immediately, under the read lock (it waits for an in-flight update
// but not for other readers). Useful after a bulk load to expose the
// new state without waiting out the policy.
func (s *Safe) RefreshSnapshot() error {
	m := s.mode.Load()
	if m == nil || m.win != nil {
		return fmt.Errorf("sketchtree: snapshots not enabled")
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.publishLocked(m.pub)
}

// SnapshotTree returns the frozen synopsis currently serving reads
// (the merged window while window serving is on), or nil when neither
// mode is on. The returned SketchTree never changes and is safe for
// concurrent queries; callers can pin it to answer a batch of queries
// against one consistent state.
func (s *Safe) SnapshotTree() *SketchTree {
	if sv := s.served(); sv != nil {
		return &SketchTree{e: sv.Value}
	}
	return nil
}

// SnapshotStats reports the served snapshot's provenance: the number
// of trees it covers and its age. While the window is enabled it
// reports the published merged window (which serves reads through the
// same frozen-state path). ok is false when neither is on.
func (s *Safe) SnapshotStats() (trees int64, age time.Duration, ok bool) {
	if sv := s.served(); sv != nil {
		return sv.Trees, time.Since(sv.Built), true
	}
	return 0, 0, false
}

// served returns the published state answering lock-free reads, or
// nil on the locked landmark path.
//
//lint:hotpath
func (s *Safe) served() *publish.State[*core.Engine] {
	if m := s.mode.Load(); m != nil {
		return m.pub.Load()
	}
	return nil
}

// publishLocked publishes a frozen clone of the live synopsis to pub.
// The caller holds mu (read or write), which orders it against
// updates.
func (s *Safe) publishLocked(pub *publish.Publisher[*core.Engine]) error {
	m := s.st.e.Metrics()
	start := m.Now()
	e, err := s.st.e.Clone()
	if err != nil {
		return err
	}
	pub.Publish(publish.State[*core.Engine]{Value: e, Trees: e.TreesProcessed(), Parts: 1, Built: time.Now()})
	m.StageSince(obs.StagePublish, start)
	return nil
}
