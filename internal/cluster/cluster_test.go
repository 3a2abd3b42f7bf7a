package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sketchtree"
)

func testConfig() sketchtree.Config {
	cfg := sketchtree.DefaultConfig()
	cfg.MaxPatternEdges = 3
	cfg.S1 = 30
	cfg.S2 = 5
	cfg.VirtualStreams = 23
	cfg.TopK = 0
	cfg.Seed = 11
	return cfg
}

func TestRouteDeterministicAndInRange(t *testing.T) {
	docs := []string{"<a><b/></a>", "<a><c/></a>", "<a><b/><c/></a>", ""}
	for _, n := range []int{1, 2, 3, 7} {
		for _, d := range docs {
			got := Route([]byte(d), n)
			if got < 0 || got >= n {
				t.Fatalf("Route(%q, %d) = %d, out of range", d, n, got)
			}
			if again := Route([]byte(d), n); again != got {
				t.Fatalf("Route(%q, %d) unstable: %d then %d", d, n, got, again)
			}
		}
	}
	// Same document, same shard — a re-sent document must not migrate.
	if Route([]byte("<a><b/></a>"), 3) != Route([]byte("<a><b/></a>"), 3) {
		t.Fatal("identical documents routed differently")
	}
}

func TestConfigNormalizeDefaults(t *testing.T) {
	c := Config{Shards: []string{"http://x"}}.normalize()
	if c.PullEvery != defaultPullEvery {
		t.Errorf("PullEvery = %v, want %v", c.PullEvery, defaultPullEvery)
	}
	if c.PullTimeout != defaultPullTimeout {
		t.Errorf("PullTimeout = %v, want %v", c.PullTimeout, defaultPullTimeout)
	}
	if c.RetryBackoff != c.PullEvery {
		t.Errorf("RetryBackoff = %v, want PullEvery %v", c.RetryBackoff, c.PullEvery)
	}
	if c.MaxBackoff != defaultMaxBackoff {
		t.Errorf("MaxBackoff = %v, want %v", c.MaxBackoff, defaultMaxBackoff)
	}
	if c.MaxSynopsisBytes != defaultMaxSynopsisBytes {
		t.Errorf("MaxSynopsisBytes = %d, want %d", c.MaxSynopsisBytes, defaultMaxSynopsisBytes)
	}
	if c.Client == nil {
		t.Error("Client not defaulted")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New with no shards succeeded")
	}
	if _, err := New(Config{Shards: []string{"http://a", ""}}); err == nil {
		t.Error("New with an empty shard URL succeeded")
	}
	p, err := New(Config{Shards: []string{"http://a", "http://b"}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards() != 2 || p.ShardURL(1) != "http://b" {
		t.Errorf("Shards/ShardURL: %d / %q", p.Shards(), p.ShardURL(1))
	}
	if p.Serving() != nil {
		t.Error("Serving non-nil before any pull")
	}
}

// A scheme-less host:port must work as an http shorthand (it is what
// operators naturally pass to -shards), and an unusable URL must fail
// at New — not as a parse error on every routed request.
func TestNewNormalizesShardURLs(t *testing.T) {
	p, err := New(Config{Shards: []string{"127.0.0.1:8081", "https://b.example/", "http://c:9/"}})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://127.0.0.1:8081", "https://b.example", "http://c:9"}
	for i, w := range want {
		if got := p.ShardURL(i); got != w {
			t.Errorf("ShardURL(%d) = %q, want %q", i, got, w)
		}
	}
	for _, bad := range []string{"ftp://a", "http://", "://nope", "http://bad url"} {
		if _, err := New(Config{Shards: []string{bad}}); err == nil {
			t.Errorf("New accepted unusable shard URL %q", bad)
		}
	}
}

func TestBackoffDoublesAndCaps(t *testing.T) {
	p, err := New(Config{
		Shards:       []string{"http://x"},
		RetryBackoff: 100 * time.Millisecond,
		MaxBackoff:   time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{
		100 * time.Millisecond, // 1 failure
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		time.Second, // capped
		time.Second,
	}
	for i, w := range want {
		if got := p.backoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

// shardHandler serves /synopsis for a fixed engine, with a failure
// switch and a request counter.
type shardHandler struct {
	st    *sketchtree.SketchTree
	fail  atomic.Bool
	pulls atomic.Int64
}

func (h *shardHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.pulls.Add(1)
	if h.fail.Load() {
		http.Error(w, "injected failure", http.StatusInternalServerError)
		return
	}
	data, err := h.st.MarshalBinary()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("X-Sketchtree-Trees", strconv.FormatInt(h.st.TreesProcessed(), 10))
	w.Write(data)
}

func newShard(t *testing.T, docs ...string) (*shardHandler, *httptest.Server) {
	t.Helper()
	st, err := sketchtree.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		tr, err := sketchtree.ParseXML(strings.NewReader(d))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.AddTree(tr); err != nil {
			t.Fatal(err)
		}
	}
	h := &shardHandler{st: st}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return h, ts
}

func TestPullMergePublishes(t *testing.T) {
	_, ts1 := newShard(t, "<a><b/></a>", "<a><c/></a>")
	_, ts2 := newShard(t, "<a><b/><c/></a>")
	p, err := New(Config{Shards: []string{ts1.URL, ts2.URL}, PullEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.PullNow(context.Background()); err != nil {
		t.Fatalf("PullNow: %v", err)
	}
	sv := p.Serving()
	if sv == nil {
		t.Fatal("no serving state after a clean pull round")
	}
	if sv.Trees != 3 || sv.Seq != 1 {
		t.Fatalf("serving trees=%d rounds=%d, want 3/1", sv.Trees, sv.Seq)
	}

	// The merged synopsis equals a single engine over all three docs.
	ref, err := sketchtree.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"<a><b/></a>", "<a><c/></a>", "<a><b/><c/></a>"} {
		tr, _ := sketchtree.ParseXML(strings.NewReader(d))
		if err := ref.AddTree(tr); err != nil {
			t.Fatal(err)
		}
	}
	q, err := sketchtree.ParsePattern("(a (b))")
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.CountOrdered(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sv.Value.CountOrdered(q)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("merged estimate %v, single-node %v (must be bit-identical)", got, want)
	}

	// Nothing changed: another round must not publish a new state.
	if err := p.PullNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if sv2 := p.Serving(); sv2.Seq != 1 || sv2.Trees != 3 {
		t.Fatalf("second round: rounds=%d trees=%d, want 1/3", sv2.Seq, sv2.Trees)
	}

	status := p.Status()
	for i, st := range status {
		if !st.Reachable || st.Stale || st.LastPullAgeMS < 0 {
			t.Errorf("shard %d status %+v, want reachable and fresh", i, st)
		}
	}
	if status[0].Trees != 2 || status[1].Trees != 1 {
		t.Errorf("per-shard trees %d/%d, want 2/1", status[0].Trees, status[1].Trees)
	}
}

func TestFailedShardGoesStaleThenRecovers(t *testing.T) {
	h1, ts1 := newShard(t, "<a><b/></a>")
	_, ts2 := newShard(t, "<a><c/></a>")
	p, err := New(Config{
		Shards:       []string{ts1.URL, ts2.URL},
		PullEvery:    time.Hour,
		RetryBackoff: time.Nanosecond, // retry immediately on the next round
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.PullNow(context.Background()); err != nil {
		t.Fatal(err)
	}

	h1.fail.Store(true)
	if err := p.PullNow(context.Background()); err == nil {
		t.Fatal("PullNow with a failing shard returned nil")
	}
	st := p.Status()[0]
	if st.Reachable || !st.Stale || st.ConsecutiveFailures != 1 || st.LastError == "" {
		t.Fatalf("failing shard status %+v, want unreachable/stale/1 failure", st)
	}
	// Its slice is still merged: the serving state keeps both trees.
	if sv := p.Serving(); sv.Trees != 2 {
		t.Fatalf("serving trees = %d after shard failure, want 2 (stale slice)", sv.Trees)
	}

	h1.fail.Store(false)
	if err := p.PullNow(context.Background()); err != nil {
		t.Fatalf("PullNow after recovery: %v", err)
	}
	st = p.Status()[0]
	if !st.Reachable || st.Stale || st.ConsecutiveFailures != 0 || st.LastError != "" {
		t.Fatalf("recovered shard status %+v, want reachable and clean", st)
	}
}

func TestBackoffSkipsUnforcedRounds(t *testing.T) {
	h, ts := newShard(t, "<a><b/></a>")
	p, err := New(Config{
		Shards:       []string{ts.URL},
		PullEvery:    time.Hour,
		RetryBackoff: time.Hour, // one failure parks the shard for the test's lifetime
	})
	if err != nil {
		t.Fatal(err)
	}
	h.fail.Store(true)
	if err := p.PullNow(context.Background()); err == nil {
		t.Fatal("expected pull failure")
	}
	n := h.pulls.Load()

	// Unforced rounds must respect the backoff window and skip the shard.
	ctx := context.Background()
	p.round(ctx, false)
	p.round(ctx, false)
	if got := h.pulls.Load(); got != n {
		t.Fatalf("backoff ignored: %d pulls, want %d", got, n)
	}
	// A forced round (?fresh=1 path) overrides the window.
	p.PullNow(ctx)
	if got := h.pulls.Load(); got != n+1 {
		t.Fatalf("forced round skipped the shard: %d pulls, want %d", got, n+1)
	}
}

func TestPullRejectsOversizedSynopsis(t *testing.T) {
	_, ts := newShard(t, "<a><b/></a>")
	p, err := New(Config{
		Shards:           []string{ts.URL},
		PullEvery:        time.Hour,
		MaxSynopsisBytes: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = p.PullNow(context.Background())
	if err == nil {
		t.Fatal("oversized synopsis pull succeeded")
	}
	if p.Serving() != nil {
		t.Fatal("oversized synopsis was merged")
	}
}

func TestRunPullsPeriodically(t *testing.T) {
	h, ts := newShard(t, "<a><b/></a>")
	p, err := New(Config{Shards: []string{ts.URL}, PullEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); p.Run(ctx) }()

	deadline := time.Now().Add(5 * time.Second)
	for p.Serving() == nil && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if p.Serving() == nil {
		t.Fatal("Run never published a merged state")
	}
	// Let a few periods elapse; the loop must keep pulling.
	base := h.pulls.Load()
	for h.pulls.Load() < base+2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if h.pulls.Load() < base+2 {
		t.Fatal("Run stopped pulling after the first round")
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
}

func TestPullNowReportsContextCancel(t *testing.T) {
	_, ts := newShard(t, "<a><b/></a>")
	p, err := New(Config{Shards: []string{ts.URL}, PullEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.PullNow(ctx); err == nil {
		t.Fatal("PullNow with canceled context returned nil")
	} else if !errors.Is(err, context.Canceled) && !strings.Contains(err.Error(), "context canceled") {
		t.Logf("PullNow error (acceptable, any failure): %v", err)
	}
}
