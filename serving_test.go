package sketchtree

import (
	"testing"
	"time"
)

// TestSafeTreesProcessedNotBlockedByWriter holds the update lock and
// checks TreesProcessed still answers — /healthz polls it while ingest
// holds the write lock for a whole update — in landmark and snapshot
// modes, and that the lock-free count tracks every write path and
// RestoreSafe.
func TestSafeTreesProcessedNotBlockedByWriter(t *testing.T) {
	for _, snapshots := range []bool{false, true} {
		s, err := NewSafe(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		if snapshots {
			if err := s.EnableSnapshots(SnapshotPolicy{EveryTrees: 2}); err != nil {
				t.Fatal(err)
			}
		}
		tr := NewTree(Pattern("A", Pattern("B")))
		for i := 0; i < 3; i++ {
			if err := s.AddTree(tr); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.RemoveTree(tr); err != nil {
			t.Fatal(err)
		}
		side, err := New(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := side.AddTree(tr); err != nil {
			t.Fatal(err)
		}
		if err := s.Merge(side); err != nil {
			t.Fatal(err)
		}

		s.mu.Lock() // simulate an in-flight update holding the write lock
		done := make(chan int64, 1)
		go func() { done <- s.TreesProcessed() }()
		select {
		case n := <-done:
			if want := s.st.TreesProcessed(); n != want {
				t.Errorf("snapshots=%v: TreesProcessed = %d, live synopsis holds %d", snapshots, n, want)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("snapshots=%v: TreesProcessed blocked behind the write lock", snapshots)
		}
		s.mu.Unlock()
		s.DisableSnapshots()

		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		r, err := RestoreSafe(data)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := r.TreesProcessed(), s.TreesProcessed(); got != want {
			t.Errorf("snapshots=%v: restored TreesProcessed = %d, want %d", snapshots, got, want)
		}
	}
}
