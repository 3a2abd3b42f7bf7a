package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// traceBuffer is the flight-recorder ring size of a traced daemon: the
// whole measured phase of every daemon but the window's standalone one
// and the coordinator, whose rings keep its last 9 to 15 s (the report
// prints what each ring covered).
const traceBuffer = 16384

// topology is the set of daemons one workload runs.
type topology struct {
	front  *daemon   // the daemon clients talk to
	shards []*daemon // cluster shards (nil otherwise)
}

// all lists every daemon, front door first.
func (t *topology) all() []*daemon { return append([]*daemon{t.front}, t.shards...) }

// holders lists the daemons holding synopsis state: the shards, or the
// standalone daemon.
func (t *topology) holders() []*daemon {
	if len(t.shards) > 0 {
		return t.shards
	}
	return []*daemon{t.front}
}

// startTopology launches the workload's daemons, each bulk-loading its
// part of the fixed corpus from a positional file, and returns once a
// query is answered from a published state covering that corpus. The
// returned duration (launch to that answer) is one set-up sample.
func startTopology(ctx context.Context, fl *fleet, w *workload, in *inputs, paths []string, traced bool) (*topology, float64, error) {
	tf := []string{"-trace-buffer", "0"}
	if traced {
		tf = []string{"-trace-buffer", strconv.Itoa(traceBuffer), "-slow-query", "0"}
	}
	daemonArgs := func(extra ...string) []string {
		args := append(w.engineFlags(), "-addr", "127.0.0.1:0")
		args = append(args, tf...)
		return append(args, extra...)
	}
	start := time.Now()
	t := &topology{}
	var err error
	switch w.mode {
	case modeSnapshot:
		t.front, err = fl.launch(ctx, "standalone", daemonArgs(
			"-snapshot-every", strconv.Itoa(w.snapEvery), "-forest", paths[0]))
	case modeWindow:
		t.front, err = fl.launch(ctx, "standalone", daemonArgs(
			"-window-slices", strconv.Itoa(w.winSlices), "-window-every", strconv.Itoa(w.winEvery),
			"-forest", paths[0]))
	case modeCluster:
		type launched struct {
			d   *daemon
			err error
		}
		ch := make([]chan launched, w.shards)
		for i := range ch {
			ch[i] = make(chan launched, 1)
			go func(i int) {
				d, err := fl.launch(ctx, fmt.Sprintf("shard%d", i), daemonArgs("-role", "shard", "-forest", paths[i]))
				ch[i] <- launched{d, err}
			}(i)
		}
		var urls []string
		for i := range ch {
			l := <-ch[i]
			if l.err != nil && err == nil {
				err = l.err
			}
			if l.d != nil {
				t.shards = append(t.shards, l.d)
				urls = append(urls, l.d.url)
			}
		}
		if err == nil {
			t.front, err = fl.launch(ctx, "coordinator", daemonArgs("-role", "coordinator",
				"-shards", strings.Join(urls, ","), "-pull-every", w.pullEvery.String()))
		}
	}
	if err != nil {
		return nil, 0, err
	}

	want := int64(in.preloadLen())
	if w.mode == modeWindow {
		want = int64(min(w.preload, w.liveDocs()))
	}
	c := newClient()
	defer c.CloseIdleConnections()
	for {
		code, body, err := do(c, http.MethodPost, t.front.url+"/query", in.queries[0].body)
		if err == nil && ok2xx(code) {
			var a queryAnswer
			if json.Unmarshal(body, &a) == nil && a.Snapshot && a.SnapshotTrees == want {
				return t, time.Since(start).Seconds(), nil
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		if time.Since(start) > 2*time.Minute {
			return nil, 0, fmt.Errorf("no query answered from the preloaded state within 2m (last status %d, err %v)", code, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// provenance is one reading of a serving state's provenance endpoint.
type provenance struct {
	cover     int64 // mode-specific coverage (see newDriver)
	rounds    int64 // cluster: merged states published
	pullBytes int64 // cluster: synopsis bytes pulled, all shards
}

type healthzBody struct {
	Trees         int64 `json:"trees"`
	Snapshot      bool  `json:"snapshot"`
	SnapshotTrees int64 `json:"snapshot_trees"`
}

type windowBody struct {
	Enabled bool `json:"enabled"`
	Window  *struct {
		LiveTrees   int64 `json:"live_trees"`
		MergedTrees int64 `json:"merged_trees"`
		Advances    int64 `json:"advances"`
		Rebuilds    int64 `json:"rebuilds"`
	} `json:"window"`
}

type clusterBody struct {
	Shards []struct {
		Reachable bool  `json:"reachable"`
		Trees     int64 `json:"trees"`
	} `json:"shards"`
	Merged *struct {
		Trees  int64 `json:"trees"`
		Rounds int64 `json:"rounds"`
	} `json:"merged"`
	Pulls []struct {
		Pulls        int64 `json:"pulls"`
		PullFailures int64 `json:"pull_failures"`
		PullBytes    int64 `json:"pull_bytes"`
		Routed       int64 `json:"routed"`
	} `json:"pulls"`
}

// readProvenance decodes a provenance body for the workload's mode:
//   - snapshot: GET /healthz, cover = snapshot_trees;
//   - window: GET /window, cover = the rebuild counter (the live count
//     repeats once the ring is full, the counter does not);
//   - cluster: GET /cluster, cover = merged trees.
func readProvenance(mode string, body []byte) (provenance, error) {
	var p provenance
	switch mode {
	case modeSnapshot:
		var h healthzBody
		if err := json.Unmarshal(body, &h); err != nil {
			return p, err
		}
		if !h.Snapshot {
			return p, fmt.Errorf("no snapshot published")
		}
		p.cover = h.SnapshotTrees
	case modeWindow:
		var wb windowBody
		if err := json.Unmarshal(body, &wb); err != nil {
			return p, err
		}
		if wb.Window == nil {
			return p, fmt.Errorf("window not enabled")
		}
		p.cover = wb.Window.Rebuilds
	case modeCluster:
		var cb clusterBody
		if err := json.Unmarshal(body, &cb); err != nil {
			return p, err
		}
		if cb.Merged == nil {
			return p, fmt.Errorf("no merged state published")
		}
		p.cover, p.rounds = cb.Merged.Trees, cb.Merged.Rounds
		for _, s := range cb.Pulls {
			p.pullBytes += s.PullBytes
		}
	}
	return p, nil
}

// provenancePath is the mode's provenance endpoint.
func provenancePath(mode string) string {
	switch mode {
	case modeWindow:
		return "/window"
	case modeCluster:
		return "/cluster"
	}
	return "/healthz"
}

// newDriver wires the load generator to the topology's front door, for
// a run asked to measure for the given number of seconds.
func newDriver(w *workload, in *inputs, topo *topology, seconds int) *driver {
	measured := w.measuredCycles(seconds)
	nominal := time.Duration(float64(w.warmCycles+measured) * w.cycleSecs * float64(time.Second))
	d := &driver{
		w: w, in: in, url: topo.front.url,
		ingest: newClient(), query: newClient(),
		measured: measured, timeout: feedTimeout * nominal,
		probe: []byte(fmt.Sprintf(`{"kind":"ordered","pattern":%q}`, in.pats[0].String())),
	}
	for _, x := range topo.all() {
		d.pids = append(d.pids, x.pid())
	}
	pre := int64(in.preloadLen())
	d.coverOf = func(fed int) int64 { return pre + int64(fed) }
	if w.mode == modeWindow {
		// Rebuild 1 is the empty window; then one per sealed slice, and
		// document n (preload included) is sealed with slice ceil(n/E).
		e := int64(w.winEvery)
		d.coverOf = func(fed int) int64 { return 1 + (pre+int64(fed)+e-1)/e }
	}
	return d
}

// commitID identifies the code under test: the VCS revision stamped
// into this binary when built in a git checkout, else a digest of the
// checkout's Go sources and go.mod files.
func commitID(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev[:min(12, len(rev))] + dirty
		}
	}
	var files []string
	_ = filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() && p != root && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(p, ".go") || e.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	var all bytes.Buffer
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(&all, "%s %d\n", rel, len(b))
		all.Write(b)
	}
	sum := sha256.Sum256(all.Bytes())
	return fmt.Sprintf("unknown (source sha256 %x)", sum[:6])
}
