// Package cluster turns sketchtreed daemons into a sharded cluster.
//
// The design exploits the paper's central property: AMS synopses are
// linear projections of the stream, so shard synopses built from the
// same Config (including Seed, with top-k tracking off) merge cell-wise
// into exactly the synopsis of the whole stream — bit-deterministic,
// independent of how documents were routed.
//
// Topology: N ingest shards (ordinary sketchtreed daemons) each own a
// slice of the document stream; a coordinator routes POST /ingest by
// document hash, periodically pulls each shard's serialized synopsis
// (GET /synopsis, the golden-pinned MarshalBinary format), merges the
// pulls in shard order, and publishes the result for lock-free query
// serving.
//
// Freshness and failure: answers come from the best state the
// coordinator has now, with explicit provenance about how stale it is.
// A down shard degrades to serving the last synopsis pulled from it
// (its slice of the counts freezes, nothing 5xxes); pulls retry with
// exponential backoff and the per-shard state — reachable, last pull
// time, trees, consecutive failures — is surfaced on GET /cluster.
package cluster

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"sketchtree"
	"sketchtree/internal/obs"
	"sketchtree/internal/obs/trace"
	"sketchtree/internal/publish"
)

// Config describes cluster membership and the pull/merge policy. The
// zero value of every optional field selects the default noted on it.
type Config struct {
	// Shards lists the shard base URLs ("http://host:port"; a bare
	// "host:port" is http shorthand). The slice index is the shard's
	// identity for routing and status.
	Shards []string

	// PullEvery is the synopsis pull period. Default 1s.
	PullEvery time.Duration

	// PullTimeout bounds one shard pull. Default 5s.
	PullTimeout time.Duration

	// RetryBackoff is the delay before re-trying a failed shard,
	// doubling per consecutive failure up to MaxBackoff. Default
	// PullEvery.
	RetryBackoff time.Duration

	// MaxBackoff caps the per-shard retry delay. Default 30s.
	MaxBackoff time.Duration

	// MaxSynopsisBytes bounds one pulled synopsis. Default 1 GiB.
	MaxSynopsisBytes int64

	// Client issues the pull requests. Default: a dedicated
	// http.Client (the per-pull budget comes from PullTimeout).
	Client *http.Client

	// Metrics receives per-shard pull accounting; nil disables.
	Metrics *obs.ClusterMetrics

	// Trace records each pull/merge round in the flight recorder's
	// background ring; nil disables. Rounds triggered by a traced
	// request (/query?fresh=1) record into that request's trace
	// instead.
	Trace *trace.Recorder

	// Logger receives structured pull-failure and publish logs.
	// Default: a no-op logger.
	Logger *slog.Logger
}

const (
	defaultPullEvery        = time.Second
	defaultPullTimeout      = 5 * time.Second
	defaultMaxBackoff       = 30 * time.Second
	defaultMaxSynopsisBytes = 1 << 30
)

func (c Config) normalize() Config {
	if c.PullEvery <= 0 {
		c.PullEvery = defaultPullEvery
	}
	if c.PullTimeout <= 0 {
		c.PullTimeout = defaultPullTimeout
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = c.PullEvery
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = defaultMaxBackoff
	}
	if c.MaxSynopsisBytes <= 0 {
		c.MaxSynopsisBytes = defaultMaxSynopsisBytes
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	return c
}

// Route returns the index of the shard owning a document: a 64-bit
// FNV-1a hash of the raw document bytes, mod n. Deterministic, so a
// re-sent document always lands on the same shard.
func Route(doc []byte, n int) int {
	h := fnv.New64a()
	h.Write(doc)
	return int(h.Sum64() % uint64(n))
}

// ShardStatus is one shard's provenance within the cluster status: the
// freshness and reachability of the slice it contributes to merged
// answers.
type ShardStatus struct {
	URL string `json:"url"`

	// Reachable reports whether the most recent pull attempt
	// succeeded. False before the first attempt completes.
	Reachable bool `json:"reachable"`

	// Stale marks a shard whose slice is being served from an earlier
	// successful pull because the shard is currently unreachable.
	Stale bool `json:"stale"`

	// Trees is the shard's tree count at its last successful pull.
	Trees int64 `json:"trees"`

	// LastPullAgeMS is the age of the last successful pull in
	// milliseconds; -1 when the shard has never been pulled.
	LastPullAgeMS int64 `json:"last_pull_age_ms"`

	// ConsecutiveFailures counts pull failures since the last success.
	ConsecutiveFailures int `json:"consecutive_failures"`

	// LastError is the most recent pull failure, cleared on success.
	LastError string `json:"last_error,omitempty"`
}

// Serving is a published merged synopsis, frozen, with its provenance.
// Its Version is the sum of the shard generations it was built from.
type Serving = publish.State[*sketchtree.SketchTree]

// shardState is the puller's book-keeping for one shard. Guarded by
// Puller.mu.
type shardState struct {
	url      string
	data     []byte // last successfully pulled synopsis, nil before first
	trees    int64
	lastPull time.Time // last successful pull
	nextTry  time.Time // earliest next attempt (backoff)
	failures int       // consecutive failures
	lastErr  error
	gen      int64 // bumped when a pull brings new bytes; drives rebuilds
	folds    int64 // successful pulls folded in; orders fetches (see round)
}

// Puller owns the coordinator's pull/merge loop and the published
// merged state. Construct with New; do not copy.
type Puller struct {
	cfg    Config
	mu     sync.Mutex // guards shards
	shards []*shardState
	pub    *publish.Publisher[*sketchtree.SketchTree]
}

// New validates cfg and creates a Puller. It performs no I/O; call Run
// (or PullNow) to start pulling.
func New(cfg Config) (*Puller, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: no shards configured")
	}
	cfg = cfg.normalize()
	p := &Puller{cfg: cfg, shards: make([]*shardState, len(cfg.Shards)), pub: publish.New[*sketchtree.SketchTree](0)}
	for i, u := range cfg.Shards {
		if u == "" {
			return nil, fmt.Errorf("cluster: shard %d has an empty URL", i)
		}
		norm, err := normalizeShardURL(u)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		p.shards[i] = &shardState{url: norm}
	}
	return p, nil
}

// normalizeShardURL validates a shard base URL at configuration time,
// so a typo fails daemon startup instead of every routed request. A
// scheme-less "host:port" is accepted as shorthand for http.
func normalizeShardURL(raw string) (string, error) {
	if !strings.Contains(raw, "://") {
		raw = "http://" + raw
	}
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("shard URL %q: %v", raw, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("shard URL %q: need http(s)://host[:port]", raw)
	}
	return strings.TrimSuffix(u.String(), "/"), nil
}

// Shards returns the number of configured shards.
func (p *Puller) Shards() int { return len(p.shards) }

// ShardURL returns shard i's base URL.
func (p *Puller) ShardURL(i int) string { return p.shards[i].url }

// Route returns the shard index owning doc.
func (p *Puller) Route(doc []byte) int { return Route(doc, len(p.shards)) }

// Serving returns the current merged state, or nil before the first
// successful pull. The returned value is immutable.
func (p *Puller) Serving() *Serving { return p.pub.Load() }

// Status reports every shard's live provenance, in shard order.
func (p *Puller) Status() []ShardStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]ShardStatus, len(p.shards))
	for i, sh := range p.shards {
		st := ShardStatus{
			URL:                 sh.url,
			Reachable:           sh.failures == 0 && !sh.lastPull.IsZero(),
			Trees:               sh.trees,
			LastPullAgeMS:       -1,
			ConsecutiveFailures: sh.failures,
		}
		if !sh.lastPull.IsZero() {
			st.LastPullAgeMS = time.Since(sh.lastPull).Milliseconds()
		}
		st.Stale = !st.Reachable && sh.data != nil
		if sh.lastErr != nil {
			st.LastError = sh.lastErr.Error()
		}
		out[i] = st
	}
	return out
}

// Run pulls every shard each PullEvery period until ctx is canceled,
// rebuilding and publishing the merged synopsis whenever a pull
// brought new state. The first round starts immediately. On return the
// ticker goroutine is joined and the pull client's idle connections
// are closed, so draining shards are not left waiting on quiet
// keep-alive conns.
func (p *Puller) Run(ctx context.Context) {
	defer p.cfg.Client.CloseIdleConnections()
	p.round(ctx, false)
	p.pub.Tick(p.cfg.PullEvery, func() { p.round(ctx, false) })
	<-ctx.Done()
	p.pub.Close()
}

// PullNow runs one pull round synchronously, ignoring per-shard
// backoff windows — the freshness fan-out behind /query?fresh=1. It
// returns the first shard error (the merged state still advances for
// the shards that answered).
func (p *Puller) PullNow(ctx context.Context) error {
	return p.round(ctx, true)
}

// round pulls the due shards in parallel, folds the results into the
// shard states, and rebuilds the merged state when anything changed.
//
// Rounds may overlap (the ticker and /query?fresh=1), and a shard
// answers concurrent requests in any order. So a result is folded only
// if no pull of its shard was folded since its fetch started — only
// then was it served after the folded bytes — and a late rebuild loses
// to the publisher's version check (the sum of shard generations).
// Either way the merged state never moves back; the next round pulls
// the dropped shard again.
//
// The round is traced: a round triggered by a traced request
// (/query?fresh=1 — the request trace rides in on ctx) records its
// per-shard pull spans and merge/publish spans into that request's
// trace; a periodic round records into a background trace of its own,
// kept in the recorder's background ring so ticker traffic never
// evicts request history.
func (p *Puller) round(ctx context.Context, force bool) error {
	type target struct {
		i     int
		url   string
		folds int64 // the shard's fold count when the fetch started
	}
	now := time.Now()
	var due []target
	p.mu.Lock()
	for i, sh := range p.shards {
		if force || !now.Before(sh.nextTry) {
			due = append(due, target{i, sh.url, sh.folds})
		}
	}
	p.mu.Unlock()
	if len(due) == 0 {
		return nil
	}

	tr := trace.FromContext(ctx)
	owned := false // this round started (and must finish) its own trace
	if tr == nil {
		tr = p.cfg.Trace.StartBackground("pull")
		owned = true
	}

	type result struct {
		i     int
		folds int64
		data  []byte
		trees int64
		err   error
	}
	results := make([]result, len(due))
	var wg sync.WaitGroup
	for n, tg := range due {
		wg.Add(1)
		go func(n int, tg target) {
			defer wg.Done()
			sp := tr.StartSpan("pull:" + strconv.Itoa(tg.i))
			start := time.Now()
			data, trees, err := p.fetch(ctx, tg.url, tr.ID())
			p.cfg.Metrics.PullDone(tg.i, time.Since(start), int64(len(data)), err)
			tr.EndSpan(sp)
			results[n] = result{i: tg.i, folds: tg.folds, data: data, trees: trees, err: err}
		}(n, tg)
	}
	wg.Wait()

	var firstErr error
	now = time.Now()
	p.mu.Lock()
	for _, r := range results {
		sh := p.shards[r.i]
		if r.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d (%s): %w", r.i, sh.url, r.err)
		}
		if r.folds != sh.folds {
			continue // a pull folded since this fetch started may be newer
		}
		if r.err != nil {
			sh.failures++
			sh.lastErr = r.err
			sh.nextTry = now.Add(p.backoff(sh.failures))
			p.cfg.Logger.Warn("synopsis pull failed", "shard", r.i, "url", sh.url,
				"err", r.err, "consecutive_failures", sh.failures, "trace_id", tr.ID())
			continue
		}
		sh.failures = 0
		sh.lastErr = nil
		sh.nextTry = time.Time{}
		if !bytes.Equal(r.data, sh.data) {
			sh.data = r.data
			sh.gen++
		}
		sh.folds++
		sh.trees = r.trees
		sh.lastPull = now
	}
	// Snapshot the per-shard bytes under mu; the restore+merge work
	// runs outside it so Status and later rounds are never blocked
	// behind a rebuild.
	var gen int64
	datas := make([][]byte, len(p.shards))
	for i, sh := range p.shards {
		datas[i] = sh.data
		gen += sh.gen
	}
	p.mu.Unlock()

	var built int64
	if sv := p.pub.Load(); sv != nil {
		built = sv.Version
	}
	if gen > built {
		if err := p.rebuild(datas, gen, tr); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if owned {
		status := http.StatusOK
		if firstErr != nil {
			status = http.StatusBadGateway
		}
		tr.Finish(status)
	}
	return firstErr
}

// backoff returns the retry delay after n consecutive failures:
// RetryBackoff doubled per failure beyond the first, capped at
// MaxBackoff.
func (p *Puller) backoff(n int) time.Duration {
	d := p.cfg.RetryBackoff
	for i := 1; i < n; i++ {
		d *= 2
		if d >= p.cfg.MaxBackoff {
			return p.cfg.MaxBackoff
		}
	}
	return min(d, p.cfg.MaxBackoff)
}

// fetch pulls one shard's serialized synopsis. traceID, when non-empty,
// propagates on the request header so the shard's flight recorder joins
// this round's trace.
func (p *Puller) fetch(ctx context.Context, base, traceID string) (data []byte, trees int64, err error) {
	ctx, cancel := context.WithTimeout(ctx, p.cfg.PullTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/synopsis", nil)
	if err != nil {
		return nil, 0, err
	}
	if traceID != "" {
		req.Header.Set(trace.Header, traceID)
	}
	resp, err := p.cfg.Client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, 0, fmt.Errorf("GET /synopsis: status %d", resp.StatusCode)
	}
	data, err = io.ReadAll(io.LimitReader(resp.Body, p.cfg.MaxSynopsisBytes+1))
	if err != nil {
		return nil, 0, err
	}
	if int64(len(data)) > p.cfg.MaxSynopsisBytes {
		return nil, 0, fmt.Errorf("synopsis exceeds %d bytes", p.cfg.MaxSynopsisBytes)
	}
	trees, _ = strconv.ParseInt(resp.Header.Get("X-Sketchtree-Trees"), 10, 64)
	return data, trees, nil
}

// rebuild restores every pulled shard synopsis and merges them in
// shard-index order into a fresh engine, then publishes it as version
// gen. Because the sketch cells are exact integer sums that commute,
// the merged synopsis — and therefore every answer served from it — is
// bit-identical to a single node that ingested the whole corpus.
// Shards that have never been pulled contribute nothing (their slice
// is absent until they come up).
func (p *Puller) rebuild(datas [][]byte, gen int64, tr *trace.Trace) error {
	sp := tr.StartSpan("merge")
	var merged *sketchtree.SketchTree
	parts := 0
	for i, data := range datas {
		if data == nil {
			continue
		}
		st, err := sketchtree.Restore(data)
		if err != nil {
			tr.EndSpan(sp)
			return fmt.Errorf("restoring shard %d synopsis: %w", i, err)
		}
		parts++
		if merged == nil {
			merged = st
			continue
		}
		if err := merged.Merge(st); err != nil {
			tr.EndSpan(sp)
			return fmt.Errorf("merging shard %d synopsis: %w", i, err)
		}
	}
	tr.EndSpan(sp)
	if merged == nil {
		return nil
	}
	sp = tr.StartSpan("publish")
	ok := p.pub.Publish(Serving{
		Value:   merged,
		Trees:   merged.TreesProcessed(),
		Parts:   parts,
		Built:   time.Now(),
		Version: gen,
	})
	tr.EndSpan(sp)
	if ok {
		p.cfg.Logger.Debug("published merged state", "trees", merged.TreesProcessed(),
			"version", gen, "trace_id", tr.ID())
	}
	return nil
}
