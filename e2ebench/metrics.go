package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"sketchtree/internal/obs"
)

// visibleLags returns, for each measured document (aligned with
// tr.feed[tr.warmDocs:]), the time in ms from its acknowledgement
// until a provenance read showed the published serving state covering
// it (0 when it was covered before the acknowledgement arrived), or NaN
// when no read ever showed it covered.
func visibleLags(tr *traffic, coverOf func(fed int) int64) []float64 {
	var polls []pollRec
	for _, p := range append(append([]pollRec(nil), tr.polls...), tr.covers...) {
		if p.ok {
			polls = append(polls, p)
		}
	}
	sort.SliceStable(polls, func(i, j int) bool { return polls[i].at.Before(polls[j].at) })
	meas := tr.feed[tr.warmDocs:]
	lags := make([]float64, len(meas))
	pi := 0
	for j, r := range meas {
		target := coverOf(tr.warmDocs + j + 1)
		for pi < len(polls) && polls[pi].cover < target {
			pi++
		}
		if pi == len(polls) {
			lags[j] = math.NaN()
			continue
		}
		lags[j] = math.Max(0, ms(polls[pi].at.Sub(r.acked)))
	}
	return lags
}

// queryTimes returns the latencies (ms, from the due time) and send
// lateness (ms) of the answered measured queries.
func queryTimes(tr *traffic) (lat, late []float64) {
	for _, q := range tr.queries {
		if q.measured && q.ok {
			lat = append(lat, ms(q.done.Sub(q.due)))
			late = append(late, ms(q.sent.Sub(q.due)))
		}
	}
	return lat, late
}

// cpuMS returns the CPU (ms) the given daemons used between two marks.
func cpuMS(a, b mark, ds []*daemon) float64 {
	var cpu float64
	for _, d := range ds {
		cpu += b.cpu[d.pid()] - a.cpu[d.pid()]
	}
	return cpu
}

// timings computes the end-to-end timings over the measured phase.
// Medians and throughput cover the whole phase. Each p99 is taken per
// measured cycle (the documents of the cycle, and the queries due
// while it ran), and the median over the cycles is reported: a stall
// of the host, such as a burst of CPU time stolen by the hypervisor,
// lifts the p99 of the one or two cycles it falls in and no other,
// while a tail the program causes in most cycles still shows.
func timings(tr *traffic, lags []float64, cycle int, ds []*daemon) map[string]float64 {
	meas := tr.feed[tr.warmDocs:]
	var qs []queryRec
	for _, q := range tr.queries {
		if q.measured && q.ok {
			qs = append(qs, q)
		}
	}
	var ingest, lag, lat []float64
	var ingest99, lag99, lat99 []float64
	qi := 0
	for c := 0; c+cycle <= len(meas); c += cycle {
		var ci, cl, cq []float64
		for j, r := range meas[c : c+cycle] {
			ci = append(ci, ms(r.acked.Sub(r.sent)))
			if l := lags[c+j]; !math.IsNaN(l) {
				cl = append(cl, l)
			}
		}
		for end := meas[c+cycle-1].acked; qi < len(qs) && qs[qi].due.Before(end); qi++ {
			cq = append(cq, ms(qs[qi].done.Sub(qs[qi].due)))
		}
		ingest, lag, lat = append(ingest, ci...), append(lag, cl...), append(lat, cq...)
		ingest99 = append(ingest99, percentile(ci, 0.99))
		if len(cl) > 0 {
			lag99 = append(lag99, percentile(cl, 0.99))
		}
		if len(cq) > 0 {
			lat99 = append(lat99, percentile(cq, 0.99))
		}
	}
	return map[string]float64{
		"ingest_docs_per_s":  float64(len(meas)) / tr.mEnd.Sub(tr.mStart).Seconds(),
		"ingest_p50_ms":      percentile(ingest, 0.50),
		"ingest_p99_ms":      median(ingest99),
		"query_p50_ms":       percentile(lat, 0.50),
		"query_p99_ms":       median(lat99),
		"visible_lag_p50_ms": percentile(lag, 0.50),
		"visible_lag_p99_ms": median(lag99),
		"cpu_ms_per_doc":     cpuPerDoc(tr, ds),
	}
}

// unbounded are the end-to-end figures every report prints but the
// result line leaves out, so BENCHMARK.json bounds none of them: they
// follow the speed of the host, which on the reference machine moved
// them by more than 0.25, the largest bound a metric may have, within
// one set of ten runs or between two sets of the same code (see
// README.md). The result line keeps the figures that held: set-up
// time, CPU per document, memory, synopsis size and accuracy.
var unbounded = []string{
	"ingest_docs_per_s", "ingest_p50_ms", "ingest_p99_ms", "query_p50_ms", "query_p99_ms",
	"visible_lag_p50_ms", "visible_lag_p99_ms",
}

// e2eUnits are the units of the end-to-end metrics.
var e2eUnits = map[string]string{
	"setup_s": "s", "ingest_docs_per_s": "docs/s", "ingest_p50_ms": "ms", "ingest_p99_ms": "ms",
	"query_p50_ms": "ms", "query_p99_ms": "ms", "visible_lag_p50_ms": "ms", "visible_lag_p99_ms": "ms",
	"cpu_ms_per_doc": "ms", "peak_rss_mb": "MB", "synopsis_kb": "KB", "rel_err_pct": "%",
}

// endToEnd computes the metrics a user of the daemons sees.
func endToEnd(w *workload, tr *traffic, fin *final, chk *checks, topo *topology, coverOf func(int) int64, setups []float64, rss float64) map[string]metric {
	m := map[string]metric{}
	set := func(name string, v float64) { m[name] = metric{Value: v, Unit: e2eUnits[name]} }
	for name, v := range timings(tr, visibleLags(tr, coverOf), w.cycle, topo.all()) {
		set(name, v)
	}
	set("setup_s", median(setups))
	set("peak_rss_mb", rss)
	kb := 0.0
	for _, s := range fin.synopses {
		kb += float64(len(s)) / 1024
	}
	set("synopsis_kb", kb)
	set("rel_err_pct", 100*mean(chk.relErrs))
	return m
}

// cpuPerDoc returns the CPU (ms) the given daemons used over the whole
// measured phase, per measured document.
func cpuPerDoc(tr *traffic, ds []*daemon) float64 {
	return cpuMS(tr.m0, tr.m1, ds) / float64(len(tr.feed)-tr.warmDocs)
}

// perLayer computes the per-layer metrics of a traced run.
func perLayer(w *workload, tr *traffic, fin *final, chk *checks, topo *topology, t *tracer) map[string]metric {
	m := map[string]metric{}
	set := func(name, unit string, v float64) {
		if math.IsNaN(v) {
			v = 0
		}
		m[name] = metric{Value: v, Unit: unit}
	}
	meanOr0 := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return mean(xs)
	}
	us := func(name string) float64 { return 1000 * t.meanMS(name) }

	st := chk.ref.eng.Stats()
	docs := float64(chk.ref.docs)
	_, parse := t.sum("ParseXML")
	_, add := t.sum("AddTree")
	set("tree.parse_us_per_doc", "us", float64(parse.Microseconds())/docs)
	set("enum.patterns_per_doc", "count", float64(st.Patterns)/docs)
	set("enum.ns_per_pattern", "ns", stageNsPer(st, obs.StageEnum))
	set("fingerprint.ns_per_pattern", "ns", stageNsPer(st, obs.StageFingerprint))
	set("sketch.ns_per_pattern", "ns", stageNsPer(st, obs.StageSketch))
	set("topk.ns_per_pattern", "ns", stageNsPer(st, obs.StageTopK))
	set("core.add_us_per_doc", "us", float64(add.Nanoseconds())/1e3/docs)
	set("core.add_allocs_per_doc", "count", float64(chk.ref.addAllocs)/docs)
	set("core.query_ordered_us", "us", us("CountOrdered"))
	set("core.query_unordered_us", "us", us("CountUnordered"))
	set("core.query_set_us", "us", us("CountOrderedSet"))
	set("core.query_expr_us", "us", us("EstimateExpression"))
	set("core.query_with_error_us", "us", us("CountWithError"))
	set("core.plan_hit_ratio", "ratio", float64(chk.planHits)/float64(chk.planTotal))

	// Counts of the daemon's own publishes in the measured phase, read
	// from its provenance (snapshot trees step by the cadence; the
	// window and cluster counters count rebuilds and rounds).
	p0, ok0 := pollAt(tr.polls, tr.mStart)
	p1, ok1 := pollAt(tr.polls, tr.mEnd)
	var dCover, dRounds, dBytes float64
	if ok0 && ok1 {
		dCover = float64(p1.cover - p0.cover)
		dRounds = float64(p1.rounds - p0.rounds)
		dBytes = float64(p1.pullBytes - p0.pullBytes)
	}
	set("snapshot.publish_ms", "ms", t.meanMS("Snapshot"))
	publishes := 0.0
	if w.mode == modeSnapshot {
		publishes = dCover / float64(w.snapEvery)
	}
	set("snapshot.publishes", "count", publishes)
	na, adv := t.sum("AdvanceWindow")
	nr, ref := t.sum("RefreshWindow")
	rebuildMS := 0.0
	if na+nr > 0 {
		rebuildMS = ms(adv+ref) / float64(na+nr)
	}
	set("window.rebuild_ms", "ms", rebuildMS)
	rebuilds := 0.0
	if w.mode == modeWindow {
		rebuilds = dCover
	}
	set("window.rebuilds", "count", rebuilds)
	set("window.rebuild_allocs", "count", chk.rebuildAllocs)

	var front, holders []*flightDump
	for _, d := range topo.all() {
		if fd := fin.flights[d.name]; fd != nil {
			if d == topo.front {
				front = append(front, fd)
			}
			if contains(topo.holders(), d) {
				holders = append(holders, fd)
			}
		}
	}
	name := func(n string) func(string) bool { return func(s string) bool { return s == n } }
	set("cluster.pull_ms", "ms", meanOr0(spanMS(front, true, "pull", func(s string) bool { return strings.HasPrefix(s, "pull:") })))
	perRound := 0.0
	if dRounds > 0 {
		perRound = dBytes / dRounds
	}
	set("cluster.pull_bytes_per_round", "bytes", perRound)
	set("cluster.rounds", "count", dRounds)
	_, restore := t.sum("Restore")
	_, merge := t.sum("Merge")
	rounds := 0.0
	if w.mode == modeCluster {
		rounds = clusterRounds
	}
	set("cluster.restore_ms", "ms", ms(restore)/math.Max(rounds, 1))
	set("cluster.merge_ms", "ms", ms(merge)/math.Max(rounds, 1))
	set("cluster.rebuild_allocs", "count", chk.clusterRebuildAllocs)
	set("cluster.publish_ms", "ms", meanOr0(spanMS(front, true, "pull", name("publish"))))

	set("server.ingest_parse_ms", "ms", meanOr0(spanMS(holders, false, "/ingest", name("parse"))))
	apply := spanMS(holders, false, "/ingest", name("apply"))
	set("server.ingest_apply_ms", "ms", meanOr0(apply))
	set("server.ingest_apply_p99_ms", "ms", percentile(apply, 0.99))
	set("server.query_plan_ms", "ms", meanOr0(spanMS(front, false, "/query", name("plan"))))
	set("server.query_eval_ms", "ms", meanOr0(spanMS(front, false, "/query", name("eval"))))
	coordinator := w.mode == modeCluster
	route, forward := 0.0, 0.0
	if coordinator {
		route = meanOr0(spanMS(front, false, "/ingest", name("route")))
		forward = meanOr0(spanMS(front, false, "/ingest", name("forward")))
	}
	set("server.route_ms", "ms", route)
	set("server.forward_ms", "ms", forward)
	set("server.synopsis_marshal_ms", "ms", meanOr0(spanMS(holders, false, "/synopsis", name("marshal"))))
	coordCPU := 0.0
	if coordinator {
		coordCPU = cpuPerDoc(tr, []*daemon{topo.front})
	}
	set("proc.coordinator_cpu_ms_per_doc", "ms", coordCPU)
	set("proc.shard_cpu_ms_per_doc", "ms", cpuPerDoc(tr, topo.holders()))
	_, late := queryTimes(tr)
	set("loadgen.late_p99_ms", "ms", percentile(late, 0.99))
	return m
}

// report prints the run's human-readable account: operations per
// kind, how late the generator ran, the CPU time the hypervisor stole
// meanwhile, the checks and every metric.
func report(out io.Writer, w *workload, tr *traffic, chk *checks, e2e, extra map[string]metric) {
	fmt.Fprintf(out, "ops: ingest %d attempted %d failed; query %d attempted %d failed; final check %d attempted %d failed\n",
		chk.ingest.attempted, chk.ingest.failed, chk.query.attempted, chk.query.failed, chk.final.attempted, chk.final.failed)
	_, late := queryTimes(tr)
	fmt.Fprintf(out, "measured: %d documents (%d cycles after %d warm-up documents) in %.2f s; %d queries at %.0f/s; %.1f%% of the machine's CPU time stolen\n",
		len(tr.feed)-tr.warmDocs, tr.cycles-w.warmCycles, tr.warmDocs, tr.mEnd.Sub(tr.mStart).Seconds(), len(late), w.queryRate, stolenPct(tr.m0, tr.m1))
	fmt.Fprintf(out, "loadgen: query schedule late p50 %.3f ms, p99 %.3f ms, max %.3f ms\n",
		percentile(late, 0.5), percentile(late, 0.99), percentile(late, 1))
	fmt.Fprintf(out, "checks: %d final answers compared with ==; exact count inside CI95 for %d of %d with-error answers; mean relative error %.2f%% over %d queries\n",
		chk.compared, chk.ciCovered, chk.ciTotal, 100*mean(chk.relErrs), len(chk.relErrs))
	printMetrics(out, "end-to-end", e2e)
	printMetrics(out, "unbounded", extra)
}

// printMetrics prints metrics one per line, sorted by name.
func printMetrics(out io.Writer, title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%s %s = %.6g %s\n", title, n, m[n].Value, m[n].Unit)
	}
}
