package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"syscall"
	"time"
)

// The load generator drives the daemon under test over exactly two
// connections (nproc on the reference machine): one carries the ingest
// feed, the other the query stream and the provenance reads.

// newClient returns an HTTP client pinned to a single keep-alive
// connection per host, with no proxy.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
		Timeout: 30 * time.Second,
	}
}

// do sends one request and reads the whole response body, so the
// connection is reused.
func do(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, b, nil
}

func ok2xx(code int) bool { return code >= 200 && code < 300 }

// queryAnswer is the part of a /query response the benchmark checks.
type queryAnswer struct {
	Estimate      float64     `json:"estimate"`
	StdErr        *float64    `json:"std_err"`
	CI95          *[2]float64 `json:"ci95"`
	Snapshot      bool        `json:"snapshot"`
	SnapshotTrees int64       `json:"snapshot_trees"`
}

// sleepUntil blocks the calling thread until t. nanosleep wakes within
// tens of microseconds, where a Go timer can fire a millisecond late;
// the open-loop schedule is timed against it.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// ingestRec is one acknowledged (or failed) POST /ingest.
type ingestRec struct {
	sent, acked time.Time
	ok          bool
}

// queryRec is one scheduled POST /query.
type queryRec struct {
	idx              int // position in the query list
	measured         bool
	due, sent, done  time.Time
	ok               bool
	trees            int64 // provenance: snapshot_trees
	finite, snapshot bool
}

// measureLead is how long after the measured start its first query is
// due: long enough for the stream to see the start while sleeping
// toward a slot, so no measured query starts out late.
const measureLead = 20 * time.Millisecond

// pollRec is one provenance read: how much of the feed the published
// serving state covered when the response arrived.
type pollRec struct {
	at time.Time
	provenance
	ok bool
}

// traffic is everything the generator observed in one feed.
type traffic struct {
	feed     []ingestRec
	warmDocs int       // documents fed before the measured phase
	cycles   int       // whole cycles fed (warm-up included)
	mStart   time.Time // first measured ingest sent
	mEnd     time.Time // last measured ingest acknowledged
	queries  []queryRec
	polls    []pollRec
	covers   []pollRec // coverage carried by query answers (not the window's)
	// m0 and m1 hold the CPU time the daemons and the machine had used
	// at the start and at the end of the measured phase.
	m0, m1  mark
	covered bool // the served state reached the whole feed
}

// mark is a point in the measured phase with the CPU time each daemon
// (by pid) and the machine had used by then.
type mark struct {
	at      time.Time
	cpu     map[int]float64
	machine cpuTimes
}

// stolenPct is the share (%) of the machine's CPU time the hypervisor
// stole between two marks.
func stolenPct(a, b mark) float64 {
	return 100 * (b.machine.steal - a.machine.steal) / math.Max(1, b.machine.total-a.machine.total)
}

// feedTimeout bounds a whole feed, warm-up included, at this many
// times its length on the reference machine: a run on a machine (or a
// build) this much slower fails instead of overrunning its time limit.
const feedTimeout = 5

// driver runs the feed and the query stream against one daemon front
// door (the standalone daemon or the coordinator).
type driver struct {
	w        *workload
	in       *inputs
	url      string
	ingest   *http.Client
	query    *http.Client
	measured int           // counted cycles
	timeout  time.Duration // for the whole feed
	pids     []int         // daemons whose CPU is charged to the measured phase
	// probe is the lock-free provenance read of snapshot mode: a query,
	// whose answer carries snapshot_trees (GET /healthz also counts the
	// live trees, under the lock ingest holds).
	probe []byte
	// coverOf is the provenance cover reading once the first fed
	// documents fed (preload included implicitly) are all covered.
	coverOf func(fed int) int64
}

// run feeds the warm-up cycles and then the measured cycles while the
// query stream runs open-loop, then keeps reading provenance until the
// served state covers the whole feed.
func (d *driver) run(ctx context.Context) (*traffic, error) {
	tr := &traffic{}
	mStartc := make(chan time.Time, 1)
	feedDone := make(chan struct{})
	qerr := make(chan error, 1)
	var qs []queryRec
	var polls []pollRec
	start := time.Now()
	go func() {
		defer func() {
			if p := recover(); p != nil {
				qerr <- fmt.Errorf("query stream panicked: %v", p)
			}
		}()
		var err error
		qs, polls, err = d.stream(ctx, start, mStartc, feedDone, tr)
		qerr <- err
	}()

	feedErr := func() error {
		defer close(feedDone)
		var err error
		for cycle := 0; cycle < d.w.warmCycles+d.measured; cycle++ {
			if cycle == d.w.warmCycles {
				tr.warmDocs = len(tr.feed)
				if tr.m0, err = d.mark(); err != nil {
					return err
				}
				tr.mStart = tr.m0.at
				mStartc <- tr.mStart
			}
			for _, doc := range d.in.cycle {
				if err := ctx.Err(); err != nil {
					return err
				}
				if time.Since(start) > d.timeout {
					return fmt.Errorf("feed still running after %v (%d of %d cycles)", d.timeout, cycle, d.w.warmCycles+d.measured)
				}
				sent := time.Now()
				code, _, err := do(d.ingest, http.MethodPost, d.url+"/ingest", doc.xml)
				tr.feed = append(tr.feed, ingestRec{sent: sent, acked: time.Now(), ok: err == nil && ok2xx(code)})
			}
			tr.cycles = cycle + 1
		}
		tr.m1, err = d.mark()
		tr.mEnd = tr.m1.at
		return err
	}()
	qe := <-qerr
	tr.queries, tr.polls = qs, polls
	if feedErr != nil {
		return nil, feedErr
	}
	return tr, qe
}

// mark records the daemons' and the machine's CPU time now.
func (d *driver) mark() (mark, error) {
	m := mark{at: time.Now(), cpu: map[int]float64{}}
	for _, pid := range d.pids {
		c, err := procCPU(pid)
		if err != nil {
			return m, err
		}
		m.cpu[pid] = c
	}
	var err error
	m.machine, err = machineCPU()
	return m, err
}

// stream is the open-loop query schedule plus the provenance reads, on
// one connection. Query i is due at anchor + i/rate; a provenance read
// falls midway between two query slots every pollEvery slots, so
// neither delays the other on a healthy server. Both re-anchor just
// after the measured start, so the measured schedule is the same in
// every run. After the feed ends, queries stop and provenance reads
// continue until the served state covers the whole feed.
func (d *driver) stream(ctx context.Context, anchor time.Time, mStartc <-chan time.Time, feedDone <-chan struct{}, tr *traffic) ([]queryRec, []pollRec, error) {
	qPeriod := time.Duration(float64(time.Second) / d.w.queryRate)
	pPeriod := qPeriod * time.Duration(d.w.pollEvery)
	var (
		qs       []queryRec
		polls    []pollRec
		covers   []pollRec // coverage read off query answers
		qi, pj   int
		measured bool
		done     bool
	)
	defer func() { tr.covers = covers }()
	for {
		if err := ctx.Err(); err != nil {
			return qs, polls, err
		}
		if !measured {
			select {
			case t := <-mStartc:
				anchor, qi, pj, measured = t.Add(measureLead), 0, 0, true
			default:
			}
		}
		if !done {
			select {
			case <-feedDone:
				done = true
			default:
			}
		}
		if done {
			// Only provenance reads remain: until the served state
			// covers everything fed, or give up after 30s.
			target := d.coverOf(len(tr.feed))
			deadline := time.Now().Add(30 * time.Second)
			for time.Now().Before(deadline) {
				if err := ctx.Err(); err != nil {
					return qs, polls, err
				}
				p := d.poll()
				polls = append(polls, p)
				if p.ok && p.cover >= target {
					tr.covered = true
					return qs, polls, nil
				}
				sleepUntil(time.Now().Add(pPeriod))
			}
			return qs, polls, nil
		}
		nextQ := anchor.Add(time.Duration(qi) * qPeriod)
		nextP := anchor.Add(time.Duration(pj)*pPeriod + qPeriod/2)
		if nextP.Before(nextQ) {
			if late := time.Since(nextP); late > pPeriod {
				// A slow request overran this slot; skip to the next
				// free one rather than queue up reads.
				pj += int(late / pPeriod)
				continue
			}
			sleepUntil(nextP)
			polls = append(polls, d.poll())
			pj++
			continue
		}
		sleepUntil(nextQ)
		select {
		case <-feedDone:
			done = true
			continue
		default:
		}
		idx := qi % min(streamQueries, len(d.in.queries))
		q := &d.in.queries[idx]
		rec := queryRec{idx: idx, measured: measured, due: nextQ, sent: time.Now()}
		code, body, err := do(d.query, http.MethodPost, d.url+"/query", q.body)
		rec.done = time.Now()
		if err == nil && ok2xx(code) {
			var a queryAnswer
			if json.Unmarshal(body, &a) == nil {
				rec.ok = true
				rec.trees = a.SnapshotTrees
				rec.snapshot = a.Snapshot
				rec.finite = !math.IsNaN(a.Estimate) && !math.IsInf(a.Estimate, 0)
				if d.w.mode != modeWindow && a.Snapshot {
					// The answer's snapshot_trees is the same coverage a
					// provenance read gives (the window's repeats).
					covers = append(covers, pollRec{at: rec.done, provenance: provenance{cover: a.SnapshotTrees}, ok: true})
				}
			}
		}
		qs = append(qs, rec)
		qi++
	}
}

// poll reads the serving state's provenance once.
func (d *driver) poll() pollRec {
	var code int
	var body []byte
	var err error
	if d.w.mode == modeSnapshot {
		code, body, err = do(d.query, http.MethodPost, d.url+"/query", d.probe)
	} else {
		code, body, err = do(d.query, http.MethodGet, d.url+provenancePath(d.w.mode), nil)
	}
	p := pollRec{at: time.Now()}
	if err != nil || !ok2xx(code) {
		return p
	}
	if d.w.mode == modeSnapshot {
		var a queryAnswer
		if json.Unmarshal(body, &a) != nil || !a.Snapshot {
			return p
		}
		p.cover, p.ok = a.SnapshotTrees, true
		return p
	}
	pv, err := readProvenance(d.w.mode, body)
	if err != nil {
		return p
	}
	p.provenance, p.ok = pv, true
	return p
}
