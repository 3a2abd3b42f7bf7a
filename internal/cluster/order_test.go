package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sketchtree"
)

// growingShard serves /synopsis for an engine that grows while it is
// being pulled. hold, when set, parks the first response — serialized
// before the wait, so it carries the bytes of that moment — until
// closed.
type growingShard struct {
	mu    sync.Mutex
	st    *sketchtree.SketchTree
	calls atomic.Int64

	hold   chan struct{}
	parked chan struct{} // closed once the first response is parked
}

func newGrowingShard(t *testing.T) *growingShard {
	t.Helper()
	st, err := sketchtree.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return &growingShard{st: st}
}

func (g *growingShard) add(t *testing.T) {
	tr, err := sketchtree.ParseXMLString("<a><b/></a>")
	if err != nil {
		t.Error(err)
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.st.AddTree(tr); err != nil {
		t.Error(err)
	}
}

func (g *growingShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	data, err := g.st.MarshalBinary()
	trees := g.st.TreesProcessed()
	g.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if g.calls.Add(1) == 1 && g.hold != nil {
		close(g.parked)
		<-g.hold
	}
	w.Header().Set("X-Sketchtree-Trees", strconv.FormatInt(trees, 10))
	w.Write(data)
}

// A slow pull of older bytes that lands after a newer round has
// published must not move the merged state, or the shard's status,
// back to the older bytes.
func TestSlowOlderPullIsNotFolded(t *testing.T) {
	g := newGrowingShard(t)
	g.add(t)
	g.hold, g.parked = make(chan struct{}), make(chan struct{})
	ts := httptest.NewServer(g)
	t.Cleanup(ts.Close)
	p, err := New(Config{Shards: []string{ts.URL}, PullEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}

	slow := make(chan error, 1)
	go func() { slow <- p.PullNow(context.Background()) }()
	select {
	case <-g.parked: // round 1 holds the 1-tree bytes
	case err := <-slow:
		t.Fatalf("round 1 finished without reaching the shard: %v", err)
	}
	g.add(t)
	err = p.PullNow(context.Background())
	sv := p.Serving()
	close(g.hold)
	if err != nil || sv == nil || sv.Trees != 2 {
		t.Fatalf("round 2: err %v, published %+v; want 2 trees", err, sv)
	}
	if err := <-slow; err != nil {
		t.Fatal(err)
	}
	if sv := p.Serving(); sv.Trees != 2 {
		t.Errorf("merged state went back to %d trees after the slow pull landed, want 2", sv.Trees)
	}
	if st := p.Status()[0]; st.Trees != 2 {
		t.Errorf("shard status went back to %d trees after the slow pull landed, want 2", st.Trees)
	}
}

// Concurrent rounds over a shard that keeps growing: the merged state
// never moves back, whichever round's fetches or rebuilds finish last.
// Run with -race.
func TestConcurrentRoundsNeverRegress(t *testing.T) {
	g := newGrowingShard(t)
	ts := httptest.NewServer(g)
	t.Cleanup(ts.Close)
	p, err := New(Config{Shards: []string{ts.URL}, PullEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the shard ingests throughout
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				g.add(t)
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	var regressed atomic.Bool
	wg.Add(1)
	go func() { // a reader watches the served provenance
		defer wg.Done()
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			if sv := p.Serving(); sv != nil {
				if sv.Trees < last {
					regressed.Store(true)
				}
				last = sv.Trees
			}
		}
	}()
	var pullers sync.WaitGroup
	for c := 0; c < 4; c++ {
		pullers.Add(1)
		go func() {
			defer pullers.Done()
			for i := 0; i < 25; i++ {
				if err := p.PullNow(context.Background()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	pullers.Wait()
	close(stop)
	wg.Wait()
	if regressed.Load() {
		t.Fatal("Serving().Trees decreased under concurrent pull rounds")
	}
	if sv := p.Serving(); sv == nil || sv.Trees == 0 {
		t.Fatalf("no merged state after the rounds: %+v", sv)
	}
}
