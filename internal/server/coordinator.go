// Coordinator role: the cluster front door. POST /ingest routes each
// document to its owning shard by content hash; POST /query answers
// from the merged snapshot the pull/merge loop (internal/cluster)
// publishes, optionally refreshing it first (?fresh=1); GET /cluster
// reports per-shard provenance. See the package comment of
// internal/cluster for the topology and staleness semantics.

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"sketchtree"
	"sketchtree/internal/cluster"
	"sketchtree/internal/obs"
	"sketchtree/internal/obs/trace"
)

// Coordinator serves the cluster API over a Puller's merged state.
type Coordinator struct {
	puller   *cluster.Puller
	fallback *sketchtree.SketchTree
	opts     Options
	sem      chan struct{}
	client   *http.Client
	met      *obs.ClusterMetrics
	httpm    *obs.HTTPMetrics
	draining atomic.Bool
	mux      *http.ServeMux
	handler  http.Handler
}

// NewCoordinator builds a Coordinator over puller. fallback answers
// queries before the first successful pull (typically an empty engine
// built from the shards' Config, so early queries see zero counts
// instead of errors); met receives routed-ingest accounting and is
// exported on /metrics alongside the puller's pull counters.
func NewCoordinator(puller *cluster.Puller, fallback *sketchtree.SketchTree, met *obs.ClusterMetrics, opts Options) *Coordinator {
	co := &Coordinator{
		puller:   puller,
		fallback: fallback,
		opts:     opts.normalize(),
		client:   &http.Client{},
		met:      met,
		httpm:    obs.NewHTTPMetrics(),
	}
	if co.opts.Role == "standalone" {
		co.opts.Role = "coordinator"
	}
	co.sem = make(chan struct{}, co.opts.MaxConcurrent)
	co.mux = http.NewServeMux()
	co.mux.HandleFunc("POST /ingest", co.handleIngest)
	co.mux.HandleFunc("POST /query", co.handleQuery)
	co.mux.HandleFunc("GET /cluster", co.handleCluster)
	co.mux.HandleFunc("GET /window", co.handleWindow)
	co.mux.HandleFunc("GET /healthz", co.handleHealthz)
	co.mux.Handle("GET /stats", sketchtree.StatsJSONHandler(co.engineStats))
	co.mux.HandleFunc("GET /metrics", co.handleMetrics)
	co.mux.Handle("GET /debug/requests", co.opts.Trace.Handler())
	co.handler = instrument(co.mux, co.opts.Trace, co.httpm, co.opts.Logger, co.opts.Role)
	return co
}

// Handler returns the HTTP handler; Run is the usual entry point.
func (co *Coordinator) Handler() http.Handler { return co.handler }

// Draining reports whether the coordinator has begun graceful
// shutdown.
func (co *Coordinator) Draining() bool { return co.draining.Load() }

// Run starts the pull/merge loop and serves the cluster API on ln
// until ctx is canceled, then drains gracefully: new connections are
// refused, /healthz and /cluster flip to draining, in-flight requests
// are answered (bounded by DrainTimeout), and finally the pull loop is
// stopped and joined. Returns nil after a clean drain.
func (co *Coordinator) Run(ctx context.Context, ln net.Listener) error {
	pctx, pcancel := context.WithCancel(context.Background())
	pdone := make(chan struct{})
	go func() {
		defer close(pdone)
		co.puller.Run(pctx)
	}()
	defer func() {
		pcancel()
		<-pdone
		// Drop pooled conns to the shards (routed ingests), so shard
		// drains never wait on this coordinator's quiet keep-alives.
		co.client.CloseIdleConnections()
	}()

	srv := &http.Server{Handler: co.handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	co.draining.Store(true)
	sctx := context.Background()
	if co.opts.DrainTimeout > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(sctx, co.opts.DrainTimeout)
		defer cancel()
	}
	err := srv.Shutdown(sctx)
	if err != nil {
		srv.Close()
	}
	<-errc // Serve has returned http.ErrServerClosed
	return err
}

// engine returns the best estimator available now: the merged serving
// state, or the fallback before the first successful pull. The second
// result is the merged provenance (nil when falling back).
func (co *Coordinator) engine() (engine, *cluster.Serving) {
	if sv := co.puller.Serving(); sv != nil {
		return sv.Value, sv
	}
	return co.fallback, nil
}

func (co *Coordinator) engineStats() sketchtree.Stats {
	if sv := co.puller.Serving(); sv != nil {
		return sv.Value.Stats()
	}
	return co.fallback.Stats()
}

// handleIngest routes the document to its owning shard and relays the
// shard's response verbatim (so partial-forest and cap errors keep
// their structure end to end). The coordinator applies its own body
// cap before buffering: routing needs the whole document for hashing.
func (co *Coordinator) handleIngest(w http.ResponseWriter, r *http.Request) {
	serveLimited(w, r, co.sem, co.opts.Timeout, func(ctx context.Context) (any, error) {
		tr := trace.FromContext(ctx)
		sp := tr.StartSpan("route")
		src := r.Body
		if co.opts.MaxIngestBody > 0 {
			src = http.MaxBytesReader(w, r.Body, co.opts.MaxIngestBody)
		}
		doc, err := io.ReadAll(&ctxReader{ctx: ctx, r: src})
		if err != nil {
			tr.EndSpan(sp)
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				err = fmt.Errorf("request body exceeds %d bytes", co.opts.MaxIngestBody)
				return nil, &statusError{
					Code: http.StatusRequestEntityTooLarge,
					Body: errorBody(ctx, err.Error()),
					Err:  err,
				}
			}
			return nil, fmt.Errorf("reading request body: %w", err)
		}
		shard := co.puller.Route(doc)
		tr.EndSpan(sp)
		tr.Annotate("shard", strconv.Itoa(shard))
		shardError := func(msg string) map[string]any {
			b := map[string]any{"error": msg, "shard": shard}
			if id := tr.ID(); id != "" {
				b["trace_id"] = id
			}
			return b
		}
		url := co.puller.ShardURL(shard) + "/ingest"
		if r.URL.Query().Get("forest") != "" {
			url += "?forest=1"
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(doc))
		if err != nil {
			co.met.RouteDone(shard, err)
			return nil, err
		}
		req.Header.Set("Content-Type", r.Header.Get("Content-Type"))
		if id := tr.ID(); id != "" {
			// The shard adopts this ID, so its flight recorder joins
			// against ours on /debug/requests?trace_id=.
			req.Header.Set(trace.Header, id)
		}
		sp = tr.StartSpan("forward")
		resp, err := co.client.Do(req)
		co.met.RouteDone(shard, err)
		if err != nil {
			tr.EndSpan(sp)
			err = fmt.Errorf("shard %d (%s) unreachable: %v", shard, co.puller.ShardURL(shard), err)
			co.opts.Logger.Warn("routed ingest failed", "role", co.opts.Role,
				"shard", shard, "url", url, "err", err, "trace_id", tr.ID())
			return nil, &statusError{
				Code: http.StatusBadGateway,
				Body: shardError(err.Error()),
				Err:  err,
			}
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(io.LimitReader(resp.Body, maxQueryBody))
		tr.EndSpan(sp)
		if err != nil {
			return nil, &statusError{
				Code: http.StatusBadGateway,
				Body: shardError(fmt.Sprintf("reading shard %d response: %v", shard, err)),
				Err:  err,
			}
		}
		// Relay the shard's exact response; the shard header tells the
		// client where its document landed.
		w.Header().Set("X-Sketchtree-Shard", strconv.Itoa(shard))
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.WriteHeader(resp.StatusCode)
		if _, err := w.Write(body); err != nil {
			_ = err // status already on the wire
		}
		return nil, errHandled
	})
}

// errHandled tells serveLimited the handler already wrote the
// response.
var errHandled = errors.New("server: response already written")

// handleQuery answers from the merged snapshot. With ?fresh=1 the
// coordinator first runs one synchronous pull round (ignoring backoff
// windows), trading latency for freshness; pull failures fall back to
// the best merged state available — freshness is best-effort, answers
// never 5xx because a shard is down.
func (co *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	fresh := r.URL.Query().Get("fresh") != ""
	serveLimited(w, r, co.sem, co.opts.Timeout, func(ctx context.Context) (any, error) {
		var req queryRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return nil, fmt.Errorf("decoding request: %w", err)
		}
		if fresh {
			// Best effort: a failed pull serves the last merged state.
			// ctx carries the request trace, so the round's per-shard
			// pull spans nest under this request.
			_ = co.puller.PullNow(ctx)
		}
		eng, sv := co.engine()
		resp, err := answerQuery(ctx, eng, &req, co.opts.Role)
		if err != nil {
			return nil, err
		}
		if sv != nil {
			resp.Snapshot = true
			resp.SnapshotTrees = sv.Trees
		}
		return resp, nil
	})
}

// clusterResponse is the GET /cluster body: the coordinator's merged
// serving state and every shard's provenance.
type clusterResponse struct {
	Role     string                     `json:"role"`
	Status   string                     `json:"status"`
	Shards   []cluster.ShardStatus      `json:"shards"`
	Merged   *mergedStatus              `json:"merged,omitempty"`
	Pulls    []obs.ClusterShardSnapshot `json:"pulls,omitempty"`
	Fallback bool                       `json:"fallback"`
}

// mergedStatus is the merged snapshot's provenance within /cluster.
type mergedStatus struct {
	Trees  int64 `json:"trees"`
	AgeMS  int64 `json:"age_ms"`
	Rounds int64 `json:"rounds"`
}

func (co *Coordinator) clusterStatus() clusterResponse {
	resp := clusterResponse{
		Role:   "coordinator",
		Status: "ok",
		Shards: co.puller.Status(),
		Pulls:  co.met.Snapshot(),
	}
	if co.draining.Load() {
		resp.Status = "draining"
	}
	if sv := co.puller.Serving(); sv != nil {
		resp.Merged = &mergedStatus{
			Trees:  sv.Trees,
			AgeMS:  time.Since(sv.Built).Milliseconds(),
			Rounds: sv.Seq,
		}
	} else {
		resp.Fallback = true
	}
	return resp
}

func (co *Coordinator) handleCluster(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, co.clusterStatus())
}

// clusterWindowResponse is the coordinator's GET /window body: the
// policy the coordinator was configured with (provenance — shards
// enforce their own) and every shard's window section, fetched
// best-effort over GET /window. An unreachable shard contributes its
// error instead of failing the whole response, mirroring /cluster's
// degradation semantics.
type clusterWindowResponse struct {
	Role    string             `json:"role"`
	Enabled bool               `json:"enabled"` // any shard reported a window
	Policy  *windowPolicyJSON  `json:"policy,omitempty"`
	Shards  []shardWindowState `json:"shards"`
}

// windowPolicyJSON is the configured window policy's provenance form.
type windowPolicyJSON struct {
	Slices     int   `json:"slices"`
	SliceTrees int   `json:"slice_trees,omitempty"`
	SliceDurMS int64 `json:"slice_dur_ms,omitempty"`
}

// shardWindowState is one shard's window section within the
// coordinator's GET /window.
type shardWindowState struct {
	Shard   int                 `json:"shard"`
	URL     string              `json:"url"`
	Enabled bool                `json:"enabled"`
	Window  *obs.WindowSnapshot `json:"window,omitempty"`
	Error   string              `json:"error,omitempty"`
}

func (co *Coordinator) handleWindow(w http.ResponseWriter, r *http.Request) {
	resp := clusterWindowResponse{Role: co.opts.Role}
	if p := co.opts.Window; p != nil {
		resp.Policy = &windowPolicyJSON{
			Slices:     p.Slices,
			SliceTrees: p.SliceTrees,
			SliceDurMS: p.SliceDur.Milliseconds(),
		}
	}
	for i := range co.puller.Status() {
		st := shardWindowState{Shard: i, URL: co.puller.ShardURL(i)}
		if err := co.fetchShardWindow(r.Context(), &st); err != nil {
			st.Error = err.Error()
		}
		if st.Enabled {
			resp.Enabled = true
		}
		resp.Shards = append(resp.Shards, st)
	}
	writeJSON(w, resp)
}

// fetchShardWindow fills st from the shard's GET /window.
func (co *Coordinator) fetchShardWindow(ctx context.Context, st *shardWindowState) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, st.URL+"/window", nil)
	if err != nil {
		return err
	}
	resp, err := co.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("shard answered %s", resp.Status)
	}
	var body windowResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxQueryBody)).Decode(&body); err != nil {
		return fmt.Errorf("decoding shard response: %w", err)
	}
	st.Enabled = body.Enabled
	st.Window = body.Window
	return nil
}

func (co *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if co.draining.Load() {
		writeJSONStatus(w, http.StatusServiceUnavailable, healthzResponse{Status: "draining"})
		return
	}
	resp := healthzResponse{Status: "ok"}
	if sv := co.puller.Serving(); sv != nil {
		resp.Trees = sv.Trees
		resp.Snapshot = true
		resp.SnapshotTrees = sv.Trees
		resp.SnapshotAgeMS = time.Since(sv.Built).Milliseconds()
	}
	writeJSON(w, resp)
}

// handleMetrics serves the merged engine's Prometheus families followed
// by the per-shard cluster families (pull latency/failures, routed
// ingests).
func (co *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	sketchtree.StatsPromHandler(co.engineStats).ServeHTTP(w, r)
	obs.WriteClusterProm(w, co.met.Snapshot())
	obs.WriteHTTPProm(w, co.httpm.Snapshot())
}
