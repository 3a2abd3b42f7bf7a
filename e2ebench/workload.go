package main

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Serving modes: how the daemons publish the state queries read.
const (
	modeSnapshot = "snapshot" // standalone daemon, -snapshot-every
	modeWindow   = "window"   // standalone daemon, -window-slices/-window-every
	modeCluster  = "cluster"  // coordinator over shards, -pull-every
)

// workload is one traffic mix: the dataset, the daemon topology and
// configuration, and the load applied to it.
type workload struct {
	name    string
	dataset string // "TREEBANK" or "DBLP"
	mode    string

	// Synopsis configuration, shared by daemons and reference engines.
	k, s1, s2, p, topK int

	preload int // fixed corpus documents bulk-loaded at start (split across shards)
	cycle   int // distinct feed documents, replayed whole cycle after cycle

	// The feed is a fixed number of whole cycles: warmCycles uncounted,
	// then measuredCycles(seconds) counted. cycleSecs is how long one
	// cycle takes on the reference machine, so the measured phase lasts
	// about --seconds there; the work sent never depends on the speed
	// of the run.
	warmCycles int
	cycleSecs  float64

	snapEvery int           // snapshot: publish every N updates
	winSlices int           // window: ring size
	winEvery  int           // window: seal (and rebuild) every N documents
	shards    int           // cluster: shard daemons behind the coordinator
	pullEvery time.Duration // cluster: coordinator pull period

	queryRate float64 // open-loop queries per second
	pollEvery int     // query periods per provenance read

	// Query make-up: distinct patterns (each asked four ways), sets of
	// three, sums/differences of two, and the exact-count floor a
	// pattern needs over the documents it is drawn from.
	patterns, sets, exprs, minCount int
}

// sketchSeed is the daemons' -seed: fixed, so only the data and the
// queries change with the workload seed.
const sketchSeed = 1

var workloads = []*workload{
	// Top-k and snapshot publishing on deep parse trees: the only
	// workload where either runs, so their cost shows here alone.
	{
		name:    "snapshot-treebank",
		dataset: "TREEBANK", mode: modeSnapshot,
		k: 4, s1: 25, s2: 7, p: 229, topK: 50,
		preload: 300, cycle: 600,
		warmCycles: 2, cycleSecs: 1.5,
		snapEvery: 10,
		queryRate: 200, pollEvery: 1,
		patterns: 200, sets: 100, exprs: 32, minCount: 120,
	},
	// The same kind of trees without top-k (the difference is what
	// top-k costs) at three times the query rate: slice rotation,
	// merged rebuilds and the lock-free read path.
	{
		name:    "window-treebank",
		dataset: "TREEBANK", mode: modeWindow,
		k: 4, s1: 25, s2: 7, p: 229, topK: 0,
		preload: 600, cycle: 800,
		warmCycles: 2, cycleSecs: 0.9,
		winSlices: 31, winEvery: 20,
		queryRate: 600, pollEvery: 2,
		patterns: 250, sets: 125, exprs: 32, minCount: 120,
	},
	// Bushy records through a coordinator over three shards: the only
	// workload with the routed forward hop, the pull → restore → merge
	// → publish cycle, and high-fanout documents for EnumTree.
	{
		name:    "cluster-dblp",
		dataset: "DBLP", mode: modeCluster,
		k: 4, s1: 25, s2: 7, p: 229, topK: 0,
		preload: 600, cycle: 1200,
		warmCycles: 2, cycleSecs: 1.6,
		shards: 3, pullEvery: 100 * time.Millisecond,
		queryRate: 200, pollEvery: 1,
		patterns: 320, sets: 160, exprs: 32, minCount: 120,
	},
}

// streamQueries is how many queries of the (shuffled) list the
// open-loop stream cycles through; the final check asks them all.
const streamQueries = 240

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// measuredCycles is the number of counted cycles of a run asked to
// measure for the given number of seconds.
func (w *workload) measuredCycles(seconds int) int {
	return max(1, int(math.Round(float64(seconds)/w.cycleSecs)))
}

// liveDocs is the number of documents a count-driven window serves once
// a slice has just been sealed: the full slices behind the empty
// current one.
func (w *workload) liveDocs() int { return (w.winSlices - 1) * w.winEvery }

// cadence is the number of documents after which the daemon publishes
// synchronously on the ingest path (0 when publishing is clock-driven).
func (w *workload) cadence() int {
	switch w.mode {
	case modeSnapshot:
		return w.snapEvery
	case modeWindow:
		return w.winEvery
	}
	return 0
}

// engineFlags are the synopsis flags every daemon of the workload gets.
func (w *workload) engineFlags() []string {
	return []string{
		"-k", strconv.Itoa(w.k), "-s1", strconv.Itoa(w.s1), "-s2", strconv.Itoa(w.s2),
		"-p", strconv.Itoa(w.p), "-topk", strconv.Itoa(w.topK),
		"-seed", strconv.Itoa(sketchSeed),
	}
}

// validate checks the invariants the run's bookkeeping relies on: whole
// cycles end on a publish boundary, so the served state covers every
// document once the feed stops.
func (w *workload) validate() error {
	if c := w.cadence(); c > 0 {
		if w.cycle%c != 0 || w.preload%c != 0 {
			return fmt.Errorf("%s: cycle %d and preload %d must be multiples of the publish cadence %d", w.name, w.cycle, w.preload, c)
		}
	}
	if w.mode == modeWindow {
		if w.winEvery >= 256 {
			return fmt.Errorf("%s: -window-every %d must stay below the window's fixed 256-update rebuild", w.name, w.winEvery)
		}
		if w.liveDocs() > w.cycle || w.liveDocs() > w.preload {
			return fmt.Errorf("%s: window of %d documents exceeds the cycle or the preload", w.name, w.liveDocs())
		}
	}
	if w.mode == modeCluster && w.preload%w.shards != 0 {
		return fmt.Errorf("%s: preload %d must split evenly over %d shards", w.name, w.preload, w.shards)
	}
	return nil
}
