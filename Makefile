# Verification targets (referenced from README.md). `make check` is
# the gate every PR runs: static analysis (go vet plus the in-repo
# contactlint suite), the full test suite under the race detector
# (which exercises the concurrent harness, the parallel engine
# workers, and the parallel recursive-bisection partitioner), and a
# short fuzz smoke per native fuzz target.

.PHONY: check vet perfbench-vet lint lint-fixtures test race fuzz-smoke chaos serve bench trace obs loc

check: vet perfbench-vet lint lint-fixtures race chaos serve fuzz-smoke trace obs

vet:
	go vet ./...

# perfbench/ is its own module, so `go vet ./...` above skips it. Vet
# it in run.sh's offline environment, so an API change that breaks
# its adapter fails the gate instead of the next benchmark run.
perfbench-vet:
	cd perfbench && GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= go vet ./...

# Repo-specific determinism/observability/serving contracts. `go run`
# builds the driver fresh, so the gate always reflects the working
# tree; -stats prints the per-analyzer diagnostic count and wall time.
lint:
	go run ./tools/contactlint -stats ./internal/... ./cmd/... ./tools/... ./examples/...

# Golden-fixture tests only: each analyzer alone over its positive/
# suppressed/clean fixture package, plus the suppression-machinery
# suite. Fast inner loop when writing or tuning an analyzer.
lint-fixtures:
	go test ./internal/lint -run 'TestGoldenAnalyzers|TestDirectives' -count=1

test:
	go test ./...

race:
	go test -race -count=1 ./...

# 10s per target; -fuzzminimizetime keeps a late-breaking interesting
# input from eating the whole budget in the silent minimizer.
fuzz-smoke:
	go test -run='^$$' -fuzz=FuzzKWay -fuzztime=10s -fuzzminimizetime=2s ./internal/partition
	go test -run='^$$' -fuzz=FuzzTreeDeserialize -fuzztime=10s -fuzzminimizetime=2s ./internal/dtree
	go test -run='^$$' -fuzz=FuzzHilbertKey -fuzztime=10s -fuzzminimizetime=2s ./internal/sfc
	go test -run='^$$' -fuzz=FuzzBKMeansAssign -fuzztime=10s -fuzzminimizetime=2s ./internal/bkmeans
	go test -run='^$$' -fuzz=FuzzBuilder -fuzztime=10s -fuzzminimizetime=2s ./internal/graph
	go test -run='^$$' -fuzz=FuzzReadMetis -fuzztime=10s -fuzzminimizetime=2s ./internal/graph
	go test -run='^$$' -fuzz=FuzzCollapse -fuzztime=10s -fuzzminimizetime=2s ./internal/graph
	go test -run='^$$' -fuzz=FuzzReadMesh -fuzztime=10s -fuzzminimizetime=2s ./internal/mesh
	go test -run='^$$' -fuzz=FuzzReadText -fuzztime=10s -fuzzminimizetime=2s ./internal/mesh
	go test -run='^$$' -fuzz=FuzzLoadCheckpoint -fuzztime=10s -fuzzminimizetime=2s ./internal/harness
	go test -run='^$$' -fuzz=FuzzJobSpec -fuzztime=10s -fuzzminimizetime=2s ./internal/server

# Deterministic fault-injection suite under the race detector: the
# chaos matrix (seeded fault schedules must leave engine results
# byte-identical), rank-failure degrade paths, transport/fault units,
# checkpoint kill/resume fidelity, and pool cancellation. Seeds are
# fixed in the tests, so failures replay exactly.
chaos:
	go test -race -count=1 \
		-run 'Chaos|Fault|Corrupt|Degrade|Retry|Transport|Direct|Faulty|Checkpoint|Resume|Cancel|Maybe|MessageAction|Latency|Active|Nil' \
		./internal/engine ./internal/transport ./internal/fault \
		./internal/harness ./internal/pool

# Serving gate under the race detector: the partsrv job engine and
# HTTP surface — bounded-queue rejection (429 + Retry-After), panic
# isolation, deadline enforcement, the chaos-under-load fleet, and the
# goroutine-leak check after graceful drain. -short skips the
# multi-second drain/restart/resubmit byte-identity sweep, which the
# full `race` target (whole tree, no -short) still runs.
serve:
	go test -race -count=1 -short -run 'TestServer|TestHTTP' ./internal/server

# End-to-end trace gate: a short traced sweep with the engine leg and
# first-attempt-only fault injection, validated by tracecheck — the
# trace must be well-formed (balanced B/E, monotonic per-lane
# timestamps) and contain spans/events from all four pipeline layers:
# harness snapshots, engine rank phases, transport exchanges (with
# injected-fault and retry events), and bisection tasks.
TRACE_OUT := $(if $(TMPDIR),$(TMPDIR),/tmp)/contactbench-trace.json
trace:
	go run ./cmd/contactbench -quick -snapshots 3 -k 4 -engine -chaos 1 -trace $(TRACE_OUT)
	go run ./tools/tracecheck \
		-require experiment,snapshot,metric_eval,partition,tree_induction,rank,ghost_exchange,global_search,local_search,transport_exchange,rb_task,retry,fault_drop \
		$(TRACE_OUT)

# Observability gate under the race detector: the Prometheus renderer
# and its validator (golden exposition, histogram invariants), the
# rolling-window/SLO histogram, the flight recorder, structured-log
# determinism, trace retention/retrieval over HTTP, and the chaos test
# that scrapes /metrics, /debug/events, and a job trace mid-storm. The
# contactbench line then proves a real sweep's exposition passes
# promcheck end to end, required families included.
PROM_OUT := $(if $(TMPDIR),$(TMPDIR),/tmp)/contactbench-metrics.prom
obs:
	go test -race -count=1 \
		-run 'Prom|Window|Flight|Logger|Merge|Trace|Health|Events|Lifecycle|ChaosUnderLoad' \
		./internal/obs ./internal/server
	go run ./cmd/contactbench -quick -snapshots 2 -k 4 -prom $(PROM_OUT)
	go run ./tools/promcheck \
		-require partition,metric_eval,rb_coarsen,rb_refine,go_sched_goroutines_goroutines \
		$(PROM_OUT)


# Non-test Go lines per package, then the total: the one way every
# change measures the line-count target. perfbench/ is its own module
# and testdata/ holds no packages, so `go list ./...` skips both.
loc:
	@go list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | \
		while read -r pkg files; do \
			[ -n "$$files" ] && printf '%6d  %s\n' "$$(cat $$files | wc -l)" "$$pkg"; \
		done | awk '{ print; sum += $$1 } END { printf "%6d  total\n", sum }'

# Microbenchmarks plus the serial-vs-parallel KWay comparison and the
# amortized adaptive-vs-scratch snapshot sweep; the latter two rewrite
# BENCH_partition.json (checked in for provenance — numbers depend on
# GOMAXPROCS, recorded in the file). The contactbench line rewrites
# BENCH_backends.json, the 4-way partitioner-backend crossover table
# (MCML+DT vs ML+RCB vs SFC vs BKMeans) on the paper-scale scene; the
# partsrv line rewrites BENCH_serve.json, the serving throughput and
# latency numbers from the daemon's self-benchmark.
bench:
	go test -bench=. -benchmem ./internal/partition
	go run ./cmd/partition -bench-json BENCH_partition.json -k 16 -bench-snapshots 8
	go run ./cmd/contactbench -k 16 -snapshots 4 -backends-json BENCH_backends.json
	go run ./cmd/partsrv -bench -bench-json BENCH_serve.json
