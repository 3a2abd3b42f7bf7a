// Command e2ebench is the end-to-end benchmark of sketchtreed. One run
// generates a workload's documents and queries from a seed, starts
// real sketchtreed daemons (built beforehand, each in its own process
// group) alongside one idle-priority spinner per CPU (spin.go), drives
// the daemons over HTTP from this one process — a closed-loop ingest
// feed of a fixed number of cycles and an open-loop query stream on
// two connections — checks every answer against engines and
// brute-force counts it computes itself, stops every process it
// started, and prints one JSON result as its last line of output.
//
// It is normally started through run.sh, which builds both binaries:
//
//	bash e2ebench/run.sh --workload window-treebank --seed 3 --seconds 20 --trace 0
//
// With --trace 0 the daemons run untraced and the result carries the
// end-to-end metrics; with --trace 1 the daemons run their flight
// recorders and the benchmark replays the same inputs through the
// library with stage timers and its own spans, and the result carries
// the per-layer metrics. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	daemon   string // sketchtreed binary
	workdir  string // where run files go (inside the checkout)
	root     string // checkout root (for the source digest)
}

// setups is the number of daemon set-ups per run; setup_s is their
// median.
const setups = 5

func main() {
	if len(os.Args) == 3 && os.Args[1] == spinArg {
		os.Exit(spinMain(os.Args[2]))
	}
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain runs the benchmark and returns the exit code. Every daemon
// and spinner started is stopped before it returns, whatever the outcome: success,
// a failed check, an error, a panic anywhere in the run, or SIGINT/
// SIGTERM (which cancel the run; no result is printed then).
func realMain(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed (documents and queries)")
	fs.IntVar(&o.seconds, "seconds", 20, "length of the measured phase on the reference machine (sets the number of measured cycles)")
	fs.IntVar(&o.trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&o.daemon, "daemon", "", "path of the sketchtreed binary")
	fs.StringVar(&o.workdir, "workdir", "", "directory for run files")
	fs.StringVar(&o.root, "root", ".", "checkout root")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.daemon == "" || o.workdir == "" || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "e2ebench: need -daemon, -workdir, -seconds >= 1 and -trace 0|1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fl := &fleet{bin: o.daemon}
	res, err := func() (res *result, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
			}
		}()
		return run(ctx, &o, fl, stdout)
	}()
	if serr := fl.stopAll(); serr != nil {
		err = errors.Join(err, serr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	if res == nil {
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one benchmark run.
func run(ctx context.Context, o *options, fl *fleet, out io.Writer) (*result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if err := w.validate(); err != nil {
		return nil, err
	}
	dir := filepath.Join(o.workdir, "runs", fmt.Sprintf("%s-seed%d-trace%d", w.name, o.seed, o.trace))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fl.logDir = dir
	rep, err := os.Create(filepath.Join(dir, "report.txt"))
	if err != nil {
		return nil, err
	}
	defer rep.Close()
	out = io.MultiWriter(out, rep)
	traced := o.trace == 1
	fmt.Fprintf(out, "workload %s seed %d seconds %d trace %d\n", w.name, o.seed, o.seconds, o.trace)
	fmt.Fprintf(out, "env: nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commitID(o.root))

	phase := newPhases()
	in, err := generate(w, o.seed)
	phase.done("inputs")
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	paths, err := writeInputs(dir, in)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "inputs: %s, %d preload + %d feed documents, %d patterns, %d queries\n",
		w.dataset, in.preloadLen(), len(in.cycle), len(in.pats), len(in.queries))

	spinners, err := fl.spin()
	if err != nil {
		return nil, err
	}
	// Set-up, several times: launch to the first answered query.
	var setupS []float64
	var topo *topology
	for i := 0; i < setups; i++ {
		t, secs, err := startTopology(ctx, fl, w, in, paths, traced)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setupS = append(setupS, secs)
		if i < setups-1 {
			if err := fl.stop(t.all()); err != nil {
				return nil, err
			}
			continue
		}
		topo = t
	}
	phase.done("set-up")
	fmt.Fprintf(out, "set-up: %v s (daemons:", fmtFloats(setupS))
	for _, d := range topo.all() {
		fmt.Fprintf(out, " %s pid %d", d.name, d.pid())
	}
	fmt.Fprint(out, "; spinners:")
	for _, d := range spinners {
		fmt.Fprintf(out, " pid %d", d.pid())
	}
	fmt.Fprintln(out, ")")

	drv := newDriver(w, in, topo, o.seconds)
	tr, err := drv.run(ctx)
	if err != nil {
		return nil, fmt.Errorf("feed: %w", err)
	}
	phase.done("feed")
	rss := 0.0
	for _, d := range topo.all() {
		mb, err := procPeakRSS(d.pid())
		if err != nil {
			return nil, err
		}
		rss += mb
	}
	fin, err := finalPhase(ctx, w, in, topo, drv, tr, traced)
	if err != nil {
		return nil, err
	}
	if err := fl.stopAll(); err != nil {
		return nil, err
	}
	if n := fl.remaining(); n != 0 {
		return nil, fmt.Errorf("%d processes still running after the run", n)
	}
	phase.done("final")
	fmt.Fprintln(out, "daemons and spinners stopped; none remain")

	var t *tracer
	if traced {
		t = newTracer()
	}
	chk, err := check(ctx, w, in, tr, fin, t)
	if err != nil {
		return nil, err
	}
	phase.done("checks")
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if traced {
		if err := t.write(filepath.Join(dir, "spans.json")); err != nil {
			return nil, err
		}
	}
	e2e := endToEnd(w, tr, fin, chk, topo, drv.coverOf, setupS, rss)
	extra := map[string]metric{}
	for _, n := range unbounded {
		extra[n] = e2e[n]
		delete(e2e, n)
	}
	report(out, w, tr, chk, e2e, extra)
	fmt.Fprintf(out, "wall time: %s\n", phase)
	res := &result{
		Correct:   chk.ok(),
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   map[string]metric{},
	}
	if traced {
		for _, d := range topo.all() {
			fd := fin.flights[d.name]
			fmt.Fprintf(out, "flight recorder %s: %d request traces, covering the last %.2f of %.2f s of the measured phase\n",
				d.name, len(fd.Recent), tr.mEnd.Sub(fd.from).Seconds(), tr.mEnd.Sub(tr.mStart).Seconds())
		}
		layers := perLayer(w, tr, fin, chk, topo, t)
		printMetrics(out, "per-layer", layers)
		res.Metrics = layers
	} else {
		res.Metrics = e2e
	}
	for _, p := range chk.problems {
		fmt.Fprintf(out, "CHECK FAILED: %s\n", p)
	}
	return res, nil
}

func fmtFloats(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3f", x)
	}
	return s
}

// phases records the wall time of a run's phases, for the report.
type phases struct {
	last  time.Time
	parts []string
}

func newPhases() *phases { return &phases{last: time.Now()} }

// done closes the phase that began when the previous one closed.
func (p *phases) done(name string) {
	now := time.Now()
	p.parts = append(p.parts, fmt.Sprintf("%s %.1f s", name, now.Sub(p.last).Seconds()))
	p.last = now
}

func (p *phases) String() string { return strings.Join(p.parts, ", ") }
