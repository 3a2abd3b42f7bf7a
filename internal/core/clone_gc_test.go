//go:build go1.24

package core

import (
	"runtime"
	"testing"
	"weak"

	"sketchtree/internal/tree"
)

// TestDroppedCloneIsCollected checks that a clone which has answered a
// query is garbage once its holder drops it. sync keeps every pool it
// has served an object from reachable until two GCs pass, so a query
// estimator pool embedded in the clone would keep the whole clone —
// counters and trackers — alive for that long; snapshot serving drops
// a clone at every publish.
func TestDroppedCloneIsCollected(t *testing.T) {
	e := mustEngine(t, cloneConfig())
	figure1Stream(t, e)
	wp := func() weak.Pointer[Engine] {
		c, err := e.Clone()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.EstimateOrdered(tree.T("A", tree.T("B"))); err != nil {
			t.Fatal(err)
		}
		return weak.Make(c)
	}()
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("a dropped clone that answered a query survived a GC")
	}
}
