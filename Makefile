GO ?= go

.PHONY: all build test race vet check bench bench-smoke rt-profile deque-stress fuzz-smoke dag-parity exhibit-golden chaos soak serve-soak loc coverage-ledger

all: check

build:
	$(GO) build ./...

# -shuffle=on randomizes test (and package-level setup) execution order
# each run, so order-dependent tests fail in CI instead of in the field;
# a failure prints the shuffle seed for reproduction.
test:
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

# -race covers the parallel experiment harness (internal/expt fans
# simulation cells across a worker pool; its determinism tests run the
# pool at width 8 even on small hosts).
race:
	$(GO) test -race -shuffle=on ./...

# One-iteration run of the simulator hot-path benchmark plus the
# shared-queue contention study (which asserts the relaxed deque's >= 2x
# steal-throughput bound at 512 workers inline): catches the hot path
# regressing to a non-compiling, panicking, racy, or slow-queue state
# without paying for a full measurement. The dag.Execute overhead
# benchmark runs once under its watchdog, so an executor that deadlocks
# again fails here in seconds with a goroutine dump, not at the CI
# timeout.
bench-smoke:
	$(GO) test -run='^$$' -bench='BenchmarkSimulator128Workers|BenchmarkContentionStudy' -benchtime=1x .
	$(GO) test -run='^$$' -bench=BenchmarkExecuteOverhead -benchtime=1x ./internal/dag

# Where the goroutine runtime's per-task time goes: a CPU profile of the
# empty-body fan-out (spawn, push, take, run, join and nothing else),
# binary and profile in a temp directory, top of the flat list printed.
rt-profile:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) test -run='^$$' -bench='BenchmarkRuntimeFanout/mutex' -benchtime=3s \
		-o "$$dir/distws.test" -outputdir "$$dir" -cpuprofile cpu.prof .; \
	$(GO) tool pprof -top -nodecount=35 "$$dir/distws.test" "$$dir/cpu.prof"

# The queue contract test, 200 times over with the collector off: the
# setting under which a relaxed queue that lost elements (a LIFO owner pop
# against stale thieves, until PR 26) showed it in every run instead of
# one in several. GOMEMLIMIT bounds what "off" may cost a shared box: the
# collector stays off until the heap reaches it. ~10 s.
deque-stress:
	GOGC=off GOMEMLIMIT=256MiB $(GO) test -count=200 -run '^TestConformance$$' ./internal/deque

# Dataflow determinism gate: the dag exhibit replays virtual time, so its
# output must be byte-identical whatever -workers parallelism renders it.
# A diff means host scheduling leaked into the DAG results.
dag-parity: build
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	for w in 1 2 8; do \
		$(GO) run ./cmd/distws-experiments -workers $$w -only dag \
			| grep -v '^regenerated ' > "$$dir/$$w.txt"; \
	done; \
	for f in "$$dir"/*.txt; do cmp "$$dir/1.txt" "$$f"; done; \
	echo "dag parity OK: exhibit byte-identical across worker counts"

# Cross-commit golden gate: the parity gate above compares a commit with
# itself, so a change that moved every worker count the same way would
# pass it. The golden file is every deterministic exhibit at -seed 1 (fig4
# excluded: it reports host wall clock; "regenerated" line stripped, as
# above) as first checked in from the parent of the commit that added this
# gate; a performance change to the simulator must leave it
# byte-identical. A change that means to move a simulated number reruns
# with UPDATE=1 and commits the diff, which then shows exactly which
# exhibit numbers it moved.
GOLDEN := testdata/exhibits_seed1.golden
GOLDEN_EXHIBITS := fig3,fig5,table1,table2,table3,fig6,fig7,granularity,uts,adaptive,contention,dag
exhibit-golden: build
	@set -e; out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	$(GO) run ./cmd/distws-experiments -seed 1 -only $(GOLDEN_EXHIBITS) \
		| grep -v '^regenerated ' > "$$out"; \
	if [ -n "$(UPDATE)" ]; then \
		cp "$$out" $(GOLDEN); echo "exhibit golden rewritten: $(GOLDEN)"; \
	else \
		cmp "$$out" $(GOLDEN); \
		echo "exhibit golden OK: seed-1 exhibits byte-identical to $(GOLDEN)"; \
	fi

# 30-second coverage-guided shakes of the binary wire codecs: the TCP
# transport frame, the service job/reply frames, and the task envelope
# (DAG dataflow fields included) all face untrusted bytes, so malformed
# input must only ever produce typed errors, never a panic or an
# over-allocation.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzWireFrame -fuzztime=30s ./internal/comm
	$(GO) test -run='^$$' -fuzz=FuzzServiceFrame -fuzztime=30s ./internal/service
	$(GO) test -run='^$$' -fuzz=FuzzDAGEnvelope -fuzztime=30s ./internal/task

# The gate a change must pass before merging. The two soaks block: what
# they add to `race` is the membership-codec fuzz shake and the
# distws-load -sim -verify byte-identity run.
check: build vet test race bench-smoke deque-stress dag-parity exhibit-golden fuzz-smoke soak serve-soak

# Full measurement: refreshes the machine-readable perf baseline
# (BENCH_sim.json), appends the run's headline numbers as one line to the
# append-only BENCH_history.jsonl (commit both: the overwritten file alone
# cannot show a slow drift), and prints the per-exhibit Go benchmarks,
# including the wire-codec-vs-gob microbenchmarks and dag.Execute's
# empty-kernel ns/task.
bench:
	$(GO) run ./cmd/distws-bench -out BENCH_sim.json
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem . ./internal/comm
	$(GO) test -run='^$$' -bench=BenchmarkExecuteOverhead -benchtime=200x ./internal/dag

# Churn soak: dynamic-membership endurance under the race detector —
# concurrent joins, graceful drains, a healing partition, and a flapping
# place, in both the simulator and the TCP-mesh runtime; the service's
# control plane through join, drain, partition and crash on virtual time,
# over seed sweeps (internal/service/vtime_test.go), with the net they run
# on — plus a short shake of the membership wire codec. Deterministic
# (fixed seeds).
soak:
	$(GO) test -race -count=1 -v -run 'TestChurn' -timeout 10m .
	$(GO) test -race -count=1 -run 'Churn|Drain|Join|Flap|Partition|Gray|Heartbeat|Survivors|Retry|Rejoin|Member|Detector|Crash|TestNet' \
		-timeout 10m ./internal/node/ ./internal/sim/ ./internal/core/ ./internal/member/ ./internal/service/ ./internal/vtime/
	$(GO) test -run='^$$' -fuzz=FuzzMemberPayload -fuzztime=15s ./internal/member

# Service soak: sustained multi-tenant load at the task service over a
# real TCP mesh — admission rejections, fair-share dispatch, a mid-run
# join and a graceful drain with exactly-once accounting — plus the same
# Server and Executors on virtual time: the dispatch-liveness seed sweeps
# and the fixed-seed simulation, rerun and compared bit for bit
# (in-process and again through the distws-load -sim -verify CLI).
LOAD_SIM := -sim -verify -seed 7 -slots 4 -duration 2s -churn "500ms:-2;1s:+2" \
	-spec "1:w=1,arrival=5000,svc=1ms,inflight=32;2:w=3,arrival=5000,svc=1ms,inflight=32"
serve-soak:
	$(GO) test -race -count=1 -v -run 'TestServe' -timeout 10m .
	$(GO) test -race -count=1 -run 'TestService|TestRunLoad|TestSimulate|TestShedJob|TestLongJob|TestLostSpawn' -timeout 10m ./internal/service
	$(GO) run ./cmd/distws-load $(LOAD_SIM)

# Non-test Go lines per package, and the total outside benchmark/: the
# figure ROADMAP.md and a simplicity PR's CHANGES.md entry quote, counted
# the same way every time (raw lines of the files `git ls-files` knows,
# comments and blanks included).
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | xargs wc -l | awk '$$2 != "total" { \
		dir = $$2; if (!sub("/[^/]*$$", "", dir)) dir = "."; n[dir] += $$1; \
		if (dir !~ /^benchmark/) total += $$1 } \
		END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); \
		printf "%7d  total outside benchmark/\n", total }'

# Coverage ledger (ROADMAP item 4): the functions outside benchmark/, cmd/
# and examples/ that (1) nothing reaches and (2) only tests reach. "Reached
# by the program" is what coverage-instrumented builds of the commands and
# the benchmark execute on the exhibit run, the benchmark's smoke run, the
# serve-soak simulation and distws-run's other faces (each micro kernel
# and the relaxed kind on the goroutine runtime; a crash and lossy steals
# in the simulator, traced, with distws-trace rendering the trace in every
# format; the same faults under lifelines on the runtime, on turingring,
# whose ring visits every place, so the crashed one reaches its task count
# whatever the schedule); "reached by tests" is the whole suite with
# -coverpkg=./... . List (1) must equal $(LEDGER_KEPT), which names each
# function kept on purpose (`file: Func reason`, in the ledger's order) and
# why: the target fails on a function nothing reaches that the file does
# not name (delete it, test it, or add it with its reason) and on a line of
# the file that is now reached (remove it). List (2) is where to ask whether
# the test or the program is missing something. Not part of `check`: it
# takes ~50 s and a timing-dependent path may flip a row; needs go >= 1.20
# for `go build -cover`, runs offline.
LEDGER_KEPT := testdata/ledger_kept.txt
LEDGER_MICRO := mergesort skyline montecarlo-pi matchain randomaccess
coverage-ledger:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	mkdir "$$dir/bin" "$$dir/prog" "$$dir/test"; \
	$(GO) build -cover -coverpkg=./... -o "$$dir/bin/" ./cmd/... ./benchmark; \
	export GOCOVERDIR="$$dir/prog"; \
	"$$dir/bin/distws-experiments" -seed 1 > /dev/null; \
	"$$dir/bin/benchmark" -quick -seconds 0.3 -out "" > /dev/null; \
	"$$dir/bin/distws-load" $(LOAD_SIM) > /dev/null; \
	for app in $(LEDGER_MICRO); do \
		"$$dir/bin/distws-run" -mode runtime -app $$app -places 2 -workers 2 > /dev/null; \
	done; \
	"$$dir/bin/distws-run" -mode runtime -app quicksort -places 2 -workers 2 -deque relaxed > /dev/null; \
	"$$dir/bin/distws-run" -mode sim -app quicksort -places 4 -workers 2 \
		-crash-place 1 -crash-at 1ms -drop 0.05 -trace "$$dir/run.events" > /dev/null; \
	"$$dir/bin/distws-run" -mode runtime -app turingring -policy lifeline -places 4 -workers 2 \
		-crash-place 1 -crash-after-tasks 50 -drop 0.05 > /dev/null; \
	for format in summary chrome csv events; do \
		"$$dir/bin/distws-trace" -in "$$dir/run.events" -format $$format > /dev/null; \
	done; \
	unset GOCOVERDIR; \
	$(GO) test -count=1 -cover -coverpkg=./... ./... -args -test.gocoverdir="$$dir/test" > "$$dir/test.log" 2>&1 \
		|| { grep -Ev '^ok |no test files|coverage: [0-9.]+% of statements$$' "$$dir/test.log"; exit 1; }; \
	$(GO) tool covdata func -i="$$dir/prog,$$dir/test" > "$$dir/all.txt"; \
	$(GO) tool covdata func -i="$$dir/prog" > "$$dir/prog.txt"; \
	awk ' \
		FNR == 1 { input++ } \
		input == 1 { if ($$0 !~ /^(#|$$)/) { k = $$1 " " $$2; sub(/^[^ ]+ +[^ ]+ */, ""); why[k] = $$0 }; next } \
		$$1 ~ /^distws\/(benchmark|cmd|examples)\// || $$1 == "total" { next } \
		{ sub(/^distws\//, "", $$1); k = $$1 " " $$2 } \
		input == 2 { prog[k] = $$3 + 0; next } \
		$$3 + 0 == 0 { none[++n] = k; next } \
		prog[k] == 0 { tests[++m] = k } \
		END { printf "(1) reached by nothing, kept on purpose ($(LEDGER_KEPT)): %d function(s)\n", n; \
		      for (i = 1; i <= n; i++) { k = none[i]; sub(/:[0-9]+: /, ": ", k); \
		        if (k in why) { print "  " k " " why[k]; delete why[k] } else stray[++s] = none[i] } \
		      printf "(2) reached only by tests: %d function(s)\n", m; for (i = 1; i <= m; i++) print "  " tests[i]; \
		      if (s) print "coverage-ledger: reached by nothing and not in $(LEDGER_KEPT):"; \
		      for (i = 1; i <= s; i++) print "  " stray[i]; \
		      for (k in why) { if (!stale++) print "coverage-ledger: in $(LEDGER_KEPT) but reached, or gone:"; print "  " k } \
		      exit (s || stale) ? 1 : 0 }' \
		$(LEDGER_KEPT) "$$dir/prog.txt" "$$dir/all.txt"

# Fault-injection suite only (also part of `test`).
chaos:
	$(GO) test -v -run 'Chaos|Crash|Fault|Lossy|Drop|Evict|Await|PlaceDown|Spike|Rehom|Injector|Plan' \
		. ./internal/fault/ ./internal/comm/ ./internal/sim/ ./internal/core/
