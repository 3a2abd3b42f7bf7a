package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// final is what the benchmark reads from the daemons after the feed,
// once the served state covers every document sent.
type final struct {
	answers  []queryAnswer // one per query of the list, in list order
	answered []bool
	prov     []byte   // provenance body at the end
	synopses [][]byte // GET /synopsis per state holder
	synTrees []int64  // X-Sketchtree-Trees per state holder
	// flights holds each daemon's flight-recorder traces that started
	// in the measured phase (traced runs only).
	flights map[string]*flightDump
	ops     opCount
}

// opCount tallies one kind of operation.
type opCount struct{ attempted, failed int }

func (c *opCount) add(ok bool) {
	c.attempted++
	if !ok {
		c.failed++
	}
}

// finalPhase reads, in a traced run, each daemon's flight recorder;
// then asks every query of the list once more, and reads the end
// provenance and each holder's serialized synopsis. The daemons are
// still running.
func finalPhase(ctx context.Context, w *workload, in *inputs, topo *topology, drv *driver, tr *traffic, traced bool) (*final, error) {
	f := &final{
		answers:  make([]queryAnswer, len(in.queries)),
		answered: make([]bool, len(in.queries)),
	}
	c := drv.query
	if traced {
		// Before the final queries, which are no part of the measured
		// stream; only traces started in the measured phase are kept.
		f.flights = map[string]*flightDump{}
		for _, d := range topo.all() {
			code, body, err := do(c, http.MethodGet, d.url+"/debug/requests", nil)
			if err != nil || !ok2xx(code) {
				return nil, fmt.Errorf("%s: GET /debug/requests: status %d, %v", d.name, code, err)
			}
			var fd flightDump
			if err := json.Unmarshal(body, &fd); err != nil {
				return nil, fmt.Errorf("%s: decoding /debug/requests: %w", d.name, err)
			}
			fd.keep(tr.mStart, tr.mEnd)
			f.flights[d.name] = &fd
		}
	}
	for i := range in.queries {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		code, body, err := do(c, http.MethodPost, topo.front.url+"/query", in.queries[i].body)
		ok := err == nil && ok2xx(code) && json.Unmarshal(body, &f.answers[i]) == nil
		f.answered[i] = ok
		f.ops.add(ok)
	}
	code, body, err := do(c, http.MethodGet, topo.front.url+provenancePath(w.mode), nil)
	f.ops.add(err == nil && ok2xx(code))
	f.prov = body
	for _, d := range topo.holders() {
		data, trees, err := fetchSynopsis(c, d.url)
		f.ops.add(err == nil)
		f.synopses = append(f.synopses, data)
		f.synTrees = append(f.synTrees, trees)
	}
	c.CloseIdleConnections()
	drv.ingest.CloseIdleConnections()
	return f, nil
}

// fetchSynopsis reads a daemon's serialized synopsis and the tree count
// it reports alongside.
func fetchSynopsis(c *http.Client, base string) ([]byte, int64, error) {
	resp, err := c.Get(base + "/synopsis")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if !ok2xx(resp.StatusCode) {
		return nil, 0, fmt.Errorf("GET /synopsis: status %d", resp.StatusCode)
	}
	trees, err := strconv.ParseInt(resp.Header.Get("X-Sketchtree-Trees"), 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("GET /synopsis: tree count: %w", err)
	}
	return data, trees, nil
}

// flightDump is the part of GET /debug/requests the benchmark reads.
type flightDump struct {
	Recent     []flightTrace `json:"recent"`
	Background []flightTrace `json:"background"`
	// from is where the kept request traces begin: the measured start,
	// or the oldest trace the ring still held when it had wrapped.
	from time.Time
}

type flightTrace struct {
	Endpoint string    `json:"endpoint"`
	Status   int       `json:"status"`
	Start    time.Time `json:"start"`
	Spans    []struct {
		Name       string `json:"name"`
		DurationNS int64  `json:"duration_ns"`
	} `json:"spans"`
}

// keep drops the traces that did not start within [from, to) and
// notes where the kept request traces begin: at from if the ring still
// held a trace from before it, else at the oldest trace kept.
func (fd *flightDump) keep(from, to time.Time) {
	within := func(ts []flightTrace) []flightTrace {
		var kept []flightTrace
		for _, t := range ts {
			if !t.Start.Before(from) && t.Start.Before(to) {
				kept = append(kept, t)
			}
		}
		return kept
	}
	whole := false
	for _, t := range fd.Recent {
		whole = whole || t.Start.Before(from)
	}
	fd.Recent, fd.Background = within(fd.Recent), within(fd.Background)
	fd.from = from
	if !whole {
		fd.from = to
		for _, t := range fd.Recent {
			if t.Start.Before(fd.from) {
				fd.from = t.Start
			}
		}
	}
}

// spanMS collects, over the successful traces of one endpoint in the
// given daemons' rings, the durations (ms) of spans whose name passes
// match.
func spanMS(dumps []*flightDump, background bool, endpoint string, match func(name string) bool) []float64 {
	var out []float64
	for _, fd := range dumps {
		ring := fd.Recent
		if background {
			ring = fd.Background
		}
		for _, t := range ring {
			if t.Endpoint != endpoint || !ok2xx(t.Status) {
				continue
			}
			for _, s := range t.Spans {
				if match(s.Name) {
					out = append(out, float64(s.DurationNS)/1e6)
				}
			}
		}
	}
	return out
}
