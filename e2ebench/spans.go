package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer's public function, recorded by
// the benchmark around the call. Spans of one replayed request (one
// document or one query) share Req; Parent is the index of the
// enclosing span, -1 at the root.
type span struct {
	Name    string `json:"name"`
	Req     int    `json:"req"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay only a nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
	reqs  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// req starts a new request ID.
func (t *tracer) req() int {
	if t == nil {
		return 0
	}
	t.reqs++
	return t.reqs
}

// begin opens a span and returns its index (-1 when not tracing).
func (t *tracer) begin(name string, req, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, StartNS: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].EndNS = int64(time.Since(t.t0))
}

// sum returns the number of spans named name and their total duration.
func (t *tracer) sum(name string) (n int, total time.Duration) {
	if t == nil {
		return 0, 0
	}
	for _, s := range t.spans {
		if s.Name == name {
			n++
			total += time.Duration(s.EndNS - s.StartNS)
		}
	}
	return n, total
}

// meanMS returns the mean duration of spans named name in ms (0 when
// none were recorded: the workload never called that function).
func (t *tracer) meanMS(name string) float64 {
	n, total := t.sum(name)
	if n == 0 {
		return 0
	}
	return ms(total) / float64(n)
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
