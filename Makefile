# Verification entry points. `make verify` is the PR gate: formatting,
# vet, the project analyzers (sketchlint), the full test suite, the
# race detector over the concurrent code (Safe, Ingestor), a
# 1-iteration benchmark smoke so the bench harness cannot rot, and a
# vet + short test of the end-to-end benchmark module.

GO ?= go
FUZZTIME ?= 10s

.PHONY: verify fmt vet lint test race bench bench-matrix bench-baseline bench-smoke cluster-smoke window-smoke e2e-smoke fuzz-smoke

verify: fmt vet lint test race bench-smoke cluster-smoke window-smoke e2e-smoke

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt -l found unformatted files:"; echo "$$out"; exit 1; \
	fi

# Standard vet, plus a restricted pass that widens unusedresult beyond
# its default function list (pure constructors whose dropped result is
# always a bug).
vet:
	$(GO) vet ./...
	$(GO) vet -unreachable -unusedresult \
		-unusedresult.funcs='errors.New,fmt.Errorf,fmt.Sprint,fmt.Sprintf,sort.Reverse' ./...

# Project-specific invariants: Safe-wrapper parity, serialization
# determinism, atomics discipline, lock discipline, fuzzer wiring.
# `go run ./cmd/sketchlint -list` describes the analyzers; intentional
# violations carry //lint:allow <analyzer> <reason> in source.
# The budget pins the lint step's cost: module load plus all analyzers
# (including the interprocedural call-graph build) must finish within
# it, or the run fails with exit 3. Raise it deliberately, not by
# letting the linter creep.
LINT_BUDGET ?= 60s

lint:
	$(GO) run ./cmd/sketchlint -budget $(LINT_BUDGET)

test:
	$(GO) build ./...
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Ingestion and query benchmarks, one iteration each. The raw go-test
# JSON event stream lands in BENCH_raw.json; BENCH_ingest.json is the
# summarized form (ns/op per benchmark, pivoted by worker count for the
# ingestion scaling sweep) produced by cmd/benchsummary.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkIngestParallel|BenchmarkStreamUpdateThroughput|BenchmarkEstimateOrdered' \
		-benchtime 1x -json . > BENCH_raw.json
	@grep '"Action":"pass"' BENCH_raw.json >/dev/null || \
		{ echo "bench run failed; see BENCH_raw.json"; exit 1; }
	$(GO) run ./cmd/benchsummary < BENCH_raw.json > BENCH_ingest.json
	@echo "wrote BENCH_ingest.json (summary; raw events in BENCH_raw.json)"

# The structured bench matrix: ingest (tree size × k × workers), query
# (pattern size × plan-cache hit/miss), and merge (virtual streams),
# summarized with per-axis params and a matrix section by
# cmd/benchsummary. CI compares BENCH_matrix.json against the
# committed testdata/bench/BENCH_baseline.json (warn-only).
bench-matrix:
	$(GO) test -run '^$$' -bench 'BenchmarkMatrix' -benchtime 1x -json . > BENCH_matrix_raw.json
	@grep '"Action":"pass"' BENCH_matrix_raw.json >/dev/null || \
		{ echo "bench-matrix run failed; see BENCH_matrix_raw.json"; exit 1; }
	$(GO) run ./cmd/benchsummary < BENCH_matrix_raw.json > BENCH_matrix.json
	@echo "wrote BENCH_matrix.json (summary; raw events in BENCH_matrix_raw.json)"

# Refresh the committed regression baseline from a fresh matrix run.
# Run on a quiet machine, eyeball the diff, and commit the result.
bench-baseline: bench-matrix
	cp BENCH_matrix.json testdata/bench/BENCH_baseline.json
	@echo "refreshed testdata/bench/BENCH_baseline.json"

# One iteration of the headline benchmarks plus one cell per matrix
# axis: proves the bench harness still compiles and runs, without the
# minutes-long paper-scale sweeps. (The matrix cells are separate
# invocations because go test splits -bench patterns on every slash,
# so per-cell selectors cannot be |-combined.)
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkIngestParallel|BenchmarkEstimateOrdered' -benchtime 1x . >/dev/null
	$(GO) test -run '^$$' -bench 'BenchmarkMatrixIngest/size=16/k=2/workers=1' -benchtime 1x . >/dev/null
	$(GO) test -run '^$$' -bench 'BenchmarkMatrixQuery/pattern=2/cache=hit' -benchtime 1x . >/dev/null
	$(GO) test -run '^$$' -bench 'BenchmarkMatrixMerge/vstreams=1' -benchtime 1x . >/dev/null
	$(GO) test -run '^$$' -bench 'BenchmarkMatrixWindow/slices=4/every=8' -benchtime 1x . >/dev/null

# The cluster-mode end-to-end tests under the race detector: three
# shard daemons plus a coordinator started through the real CLI entry
# point, checking routed ingest, bit-identical merged answers, and
# stale-slice degradation when a shard dies. CLUSTER_STATUS_OUT makes
# the test persist the final GET /cluster JSON (CI uploads it as an
# artifact).
cluster-smoke:
	CLUSTER_STATUS_OUT=$(CURDIR)/cluster_status.json \
	DEBUG_REQUESTS_OUT=$(CURDIR)/debug_requests.json \
		$(GO) test -race -count=1 -run '^TestCluster' ./cmd/sketchtreed

# The sliding-window end-to-end suite under the race detector: the
# windowed daemon through the real CLI entry point (ingest, advance,
# GET /window provenance) plus the windowed-vs-fresh bit-identity
# equivalence suite, verbosely logged. WINDOW_STATUS_OUT persists the
# final GET /window JSON and window_equivalence.log captures the
# equivalence run (CI uploads both as artifacts).
window-smoke:
	WINDOW_STATUS_OUT=$(CURDIR)/window_status.json \
		$(GO) test -race -count=1 -run '^TestWindowDaemon' ./cmd/sketchtreed
	$(GO) test -count=1 -run '^TestWindowEquivalenceRandom$$' -v . > window_equivalence.log
	@echo "wrote window_status.json and window_equivalence.log"

# The end-to-end benchmark (e2ebench/, `bash e2ebench/run.sh`) is its
# own Go module, so the root vet and test never compile it, yet it
# drives the library API (EnableWindow, AdvanceWindow, RefreshWindow,
# Snapshot, Restore, Merge). Vet it and run its short tests so it keeps
# building; full runs stay out of CI (see e2ebench/README.md).
e2e-smoke:
	cd e2ebench && $(GO) vet ./... && $(GO) test -short ./...

# Short coverage-guided runs of every fuzz target (FUZZTIME each).
# Seed corpora live under testdata/fuzz/<FuzzName>/; a crasher found
# here is written there too — commit it as a regression test.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParsePattern$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzRestore$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzWindowAdvance$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzParseSexp$$' -fuzztime $(FUZZTIME) ./internal/tree
	$(GO) test -run '^$$' -fuzz '^FuzzParseXML$$' -fuzztime $(FUZZTIME) ./internal/tree
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/prufer
	$(GO) test -run '^$$' -fuzz '^FuzzReconstruct$$' -fuzztime $(FUZZTIME) ./internal/prufer
	$(GO) test -run '^$$' -fuzz '^FuzzAnalyzers$$' -fuzztime $(FUZZTIME) ./internal/analysis
