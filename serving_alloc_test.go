//go:build !race

// The race detector's sync.Pool drops entries at random, so pooled
// query scratch may allocate under -race; the allocation contract is
// pinned without it.

package sketchtree

import "testing"

// TestSafeCountOrderedCacheHitZeroAlloc pins the Safe read path's cost
// on a plan-cache hit: the forwarder adds no allocation to the
// engine's, whether it serves from the locked live engine, a published
// snapshot or the merged window.
func TestSafeCountOrderedCacheHitZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name   string
		enable func(s *Safe) error
	}{
		{"Locked", func(*Safe) error { return nil }},
		{"Snapshot", func(s *Safe) error { return s.EnableSnapshots(SnapshotPolicy{EveryTrees: 1 << 20}) }},
		{"Window", func(s *Safe) error { return s.EnableWindow(WindowPolicy{Slices: 2, SliceTrees: 1 << 20}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSafe(testConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.enable(s); err != nil {
				t.Fatal(err)
			}
			defer s.DisableSnapshots()
			defer s.DisableWindow()
			for i := 0; i < 8; i++ {
				if err := s.AddTree(snapTree(i)); err != nil {
					t.Fatal(err)
				}
			}
			_ = s.RefreshSnapshot() // publish the trees (errors outside snapshot mode)
			_ = s.RefreshWindow()   // likewise outside window mode
			q := Pattern("A", Pattern("B"))
			want, err := s.CountOrdered(q) // prime the plan cache
			if err != nil {
				t.Fatal(err)
			}
			if want == 0 {
				t.Fatal("served state is empty; the reads would not reach the published trees")
			}
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := s.CountOrdered(q); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("cache-hit Safe.CountOrdered allocates %.1f times per query, want 0", allocs)
			}
		})
	}
}
