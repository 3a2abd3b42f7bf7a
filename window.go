package sketchtree

import (
	"fmt"
	"time"

	"sketchtree/internal/obs"
	"sketchtree/internal/window"
)

// WindowPolicy configures sliding-window counting on a Safe: the ring
// capacity and the advance cadences (document count and/or wall
// clock). See internal/window.Policy for field semantics.
type WindowPolicy = window.Policy

// WindowStats is the sliding-window section of Stats: per-slice
// occupancy and age, merged-state provenance, and the
// advance/expire/rebuild counters.
type WindowStats = obs.WindowSnapshot

// DefaultWindowRefreshEveryTrees is the merged-rebuild cadence
// selected by a zero WindowPolicy.RefreshEveryTrees.
const DefaultWindowRefreshEveryTrees = window.DefaultRefreshEveryTrees

// EnableWindow switches Safe from landmark ("counts since the
// beginning") to sliding-window semantics: updates are folded into a
// ring of per-slice sub-synopses, the window advances per the policy
// (expiring the oldest slice when the ring is full), and every
// Count*/Estimate* read is answered lock-free from a published merge
// of the live slices. Because AMS synopses are linear, the merged
// state is bit-identical to a fresh engine fed only the live
// documents, so answers carry the paper's landmark guarantees over the
// window's suffix of the stream.
//
// The window must be enabled before any tree is added, and requires a
// mergeable configuration: Config.TopK 0, Config.TrackExact false, no
// auditor attached (EnableAudit and EnableWindow are mutually
// exclusive). Window serving publishes its own merged snapshot, so it
// is also mutually exclusive with EnableSnapshots.
//
// Enabling twice is an error; call DisableWindow first to change the
// policy.
func (s *Safe) EnableWindow(p WindowPolicy) error {
	s.modeMu.Lock()
	defer s.modeMu.Unlock()
	if m := s.mode.Load(); m != nil {
		if m.win != nil {
			return fmt.Errorf("sketchtree: window already enabled")
		}
		return fmt.Errorf("sketchtree: window serving and snapshot serving are mutually exclusive (the window publishes its own merged snapshot)")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w, err := window.New(s.st.e, p, nil)
	if err != nil {
		return err
	}
	if p.SliceDur > 0 {
		// Tick at a quarter of the slice duration, so an idle stream's
		// slices still expire within ~1.25x their nominal age.
		w.Publisher().Tick(max(p.SliceDur/4, time.Millisecond), func() { _ = w.AdvanceDue() })
	}
	s.mode.Store(&serving{pub: w.Publisher(), win: w})
	return nil
}

// DisableWindow stops sliding-window serving: the background advancer
// (if any) is joined and reads return to the landmark synopsis, which
// is empty — the window's slices are discarded, not folded back (an
// expired slice cannot be distinguished from a live one after the
// fact). A no-op when the window is not enabled.
func (s *Safe) DisableWindow() { s.disable(true) }

// WindowEnabled reports whether sliding-window serving is on.
func (s *Safe) WindowEnabled() bool { return s.windowed() != nil }

// AdvanceWindow seals the current slice and starts a fresh one
// immediately, regardless of the policy cadences — the manual-advance
// entry point (and the only one when both cadences are zero). The
// merged serving state is rebuilt before returning.
func (s *Safe) AdvanceWindow() error {
	w := s.windowed()
	if w == nil {
		return fmt.Errorf("sketchtree: window not enabled")
	}
	return w.Advance()
}

// RefreshWindow rebuilds the published merged window from the live
// slices immediately, regardless of the rebuild cadence — useful after
// a bulk load to expose the new state without waiting out the policy.
func (s *Safe) RefreshWindow() error {
	w := s.windowed()
	if w == nil {
		return fmt.Errorf("sketchtree: window not enabled")
	}
	return w.Refresh()
}

// WindowStats reports the sliding-window section of the observability
// snapshot. ok is false when the window is not enabled. Lock-free.
func (s *Safe) WindowStats() (ws *WindowStats, ok bool) {
	w := s.windowed()
	if w == nil {
		return nil, false
	}
	return w.Status(), true
}
