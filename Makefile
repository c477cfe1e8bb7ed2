GO ?= go

.PHONY: all build fmt-check test race vet check bench bench-smoke rt-profile deque-stress dag-crash core-crash fuzz-smoke dag-parity exhibit-golden docs-check chaos soak serve-soak loc coverage-ledger never-read

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

# Every Go file as gofmt prints it: the target lists any that are not.
fmt-check:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo "gofmt needed:"; echo "$$files"; exit 1; fi

# -race covers the parallel experiment harness (internal/expt fans
# simulation cells across a worker pool; its determinism tests run the
# pool at width 8 even on small hosts). The socket tests that soak and
# serve-soak run are skipped here, so `check` runs each under -race once.
race:
	$(GO) test -race -shuffle=on \
		-skip '^(TestServeMeshSoak|TestChurnMeshSoak|TestHeartbeatDetectorGrayFailure|TestRetryRacesConcurrentCrashes)$$' ./...

# One-iteration run of the simulator hot-path benchmarks (fork-join,
# BenchmarkSimulator128Workers, and dataflow, BenchmarkSimDAG: cholesky
# and lu through sim.RunDAG, blind and data-aware) plus the
# shared-queue contention study (which asserts the relaxed deque's >= 2x
# steal-throughput bound at 512 workers inline): catches the hot path
# regressing to a non-compiling, panicking, racy, or slow-queue state
# without paying for a full measurement. One UTS tree on the goroutine
# runtime runs too, so a bag (core.Bag) that deadlocks or stops completing
# fails here in seconds, and so does each paper app and uts, once through
# Parallel on one 2x1 runtime and once through Sequential (BenchmarkAppRun,
# checksums checked): a serial floor or a hang inside one app's run shows
# here without the benchmark harness. The dag.Execute overhead
# benchmark (on a reused graph and on one built fresh for each run) runs
# once under its watchdog, so an executor that deadlocks again fails here
# in seconds with a goroutine dump, not at the CI timeout, and
# dag.NewSchedule derives each suite graph's edges once, with its
# allocations. Each linalg tile kernel, naive and blocked, runs once too, so a
# blocked kernel that panics on a remainder path fails here, and so does
# linalg's checksum (BenchmarkChecksum: the byte-wise FNV-1a fold against
# the word fold, over the suite's final tiles); so do the
# mesh insert (map-based oracle; Insert on an unsized mesh, walking from
# the last insert; Insert on a sized mesh, walking from the point's grid
# cell; and a circumcentre inserted from its triangle, as dmr refines; with
# their allocations), agglom's nearest-neighbour scan (all-pairs and the
# x-sorted sweep, sort included), nbody's tree build (recursive oracle
# and the one-pass build, with their allocations) and force (recursive
# oracle and the preorder walk, both steps at 16 000 bodies), and dmr's
# bad-triangle test (MinAngleDeg's acos and the cosine filter).
bench-smoke:
	$(GO) test -run='^$$' -bench='BenchmarkSimulator128Workers|BenchmarkSimDAG|BenchmarkContentionStudy|BenchmarkUTSRuntime|BenchmarkAppRun|BenchmarkNestedFinish|BenchmarkXSort' -benchtime=1x .
	$(GO) test -run='^$$' -bench='BenchmarkExecuteOverhead|BenchmarkNewSchedule' -benchtime=1x -benchmem ./internal/dag
	$(GO) test -run='^$$' -bench='BenchmarkTileKernels|BenchmarkChecksum' -benchtime=1x ./internal/apps/linalg
	$(GO) test -run='^$$' -bench=BenchmarkInsert -benchtime=1x -benchmem ./internal/geom
	$(GO) test -run='^$$' -bench=BenchmarkNNChunk -benchtime=1x ./internal/apps/agglom
	$(GO) test -run='^$$' -bench='BenchmarkBuild|BenchmarkForce' -benchtime=1x -benchmem ./internal/apps/nbody
	$(GO) test -run='^$$' -bench=BenchmarkIsBad -benchtime=1x ./internal/apps/dmr

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

# dag.Execute through a mid-run place crash, 500 times over (~8 s): the
# test once missed its crash about one run in 600 (a task quota that
# data-aware placement left unmet), so a regression needs this many runs
# to show.
dag-crash:
	$(GO) test -count=500 -run '^TestExecuteSurvivesPlaceCrash$$' ./internal/dag

# core's AfterTasks crash tests, 300 times over under -race (~20 s):
# when the crash could fire with the crashed place's queues still empty,
# each failed a few runs in 200, and when thieves could empty the crashing
# place's queue first, one in ~300 on a loaded host, so a regression needs
# this many to show. The third crashes a place holding bags (core.Bag); the
# fourth, TestCrashCompletesOnEveryKind's relaxed case, crashes a place
# whose flexible queues remote thieves take steal-half from.
core-crash:
	$(GO) test -race -count=300 -run '^(TestCrashedPlaceWorkIsReExecuted|TestCrashUnderX10WSStillCompletes|TestBagSurvivesPlaceCrash|TestCrashCompletesOnEveryKind)$$/^relaxed$$' ./internal/core

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
GOLDEN_EXHIBITS := fig3,fig5,table1,table2,table3,fig6,fig7,granularity,uts,contention,dag
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

# Every backticked `make <target>` and every cmd/, internal/ and examples/
# path that README.md, DESIGN.md, EXPERIMENTS.md and the verify skill name
# must resolve in the tree (TestDocsResolve, also part of `test`).
docs-check:
	$(GO) test -count=1 -run '^TestDocsResolve$$' .

# 30-second coverage-guided shakes of the binary wire codecs: the TCP
# transport frame, the service job/reply frames, and the task envelope
# all face untrusted bytes, so malformed input must only ever produce
# typed errors, never a panic or an over-allocation.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzWireFrame -fuzztime=30s ./internal/comm
	$(GO) test -run='^$$' -fuzz=FuzzServiceFrame -fuzztime=30s ./internal/service
	$(GO) test -run='^$$' -fuzz=FuzzEnvelope -fuzztime=30s ./internal/task

# The gate a change must pass before merging. The two soaks block: what
# they add to `race` is the socket soak, the membership-codec fuzz shake
# and the distws-load -sim -verify byte-identity run.
check: build fmt-check vet test race bench-smoke deque-stress dag-crash core-crash dag-parity exhibit-golden fuzz-smoke soak serve-soak coverage-ledger never-read

# Full measurement: the workloads BENCHMARK.json declares, end to end and
# layer by layer (`go run ./benchmark`, ~2.5 min; it writes only the
# ignored .bench_out/), then the checked-in Go benchmarks at a 1 s
# benchtime, five counts each for spread: every exhibit's regeneration,
# the simulator hot path (events/sec) on a fork-join trace and, in
# BenchmarkSimDAG, on the cholesky and lu graphs, its tracing off/on
# pair, the wire codec against gob, dag.Execute's empty-kernel ns/task
# (graph reused, and built fresh for each run) and dag.NewSchedule on the
# three suite graphs (ns and allocs per derivation), and the kernels kept beside their naive references: linalg's tiles, the
# mesh insert (ns, B and allocs per insert), agglom's nearest-neighbour
# scan, nbody's tree build (ns, B and allocs per build) and force walk,
# and dmr's bad-triangle test (ns per triangle). ~7 min in all on 2
# vCPUs.
bench:
	$(GO) run ./benchmark
	$(GO) test -run='^$$' -bench=. -benchtime=1s -count=5 -benchmem . ./internal/comm
	$(GO) test -run='^$$' -bench='BenchmarkExecuteOverhead|BenchmarkNewSchedule' -benchtime=1s -count=5 -benchmem ./internal/dag
	$(GO) test -run='^$$' -bench='BenchmarkTileKernels|BenchmarkChecksum' -benchtime=1s -count=5 ./internal/apps/linalg
	$(GO) test -run='^$$' -bench=BenchmarkInsert -benchtime=1s -count=5 -benchmem ./internal/geom
	$(GO) test -run='^$$' -bench=BenchmarkNNChunk -benchtime=1s -count=5 ./internal/apps/agglom
	$(GO) test -run='^$$' -bench='BenchmarkBuild|BenchmarkForce' -benchtime=1s -count=5 -benchmem ./internal/apps/nbody
	$(GO) test -run='^$$' -bench=BenchmarkIsBad -benchtime=1s -count=5 ./internal/apps/dmr

# Churn soak: dynamic-membership endurance under the race detector —
# concurrent joins, graceful drains, a healing partition, and a flapping
# place in the simulator and, under the service front door, on a real TCP
# mesh (the root TestChurn*), and on the goroutine runtime (internal/core);
# the service's control plane through join, drain, partition and crash on
# virtual time, over seed sweeps (internal/service/vtime_test.go), with the
# net they run on; the executor's half of a drain and a join, and on a
# loopback TCP mesh a gray failure only the detector sees and retries
# racing three crashes (internal/node) — plus a short shake of the
# membership wire codec. The simulator and virtual-time halves are
# deterministic (fixed seeds).
soak:
	$(GO) test -race -count=1 -v -run 'TestChurn' -timeout 10m .
	$(GO) test -race -count=1 -run 'Churn|Drain|Join|Flap|Partition|Gray|Heartbeat|Rejoin|Member|Detector|Crash|TestNet' \
		-timeout 10m ./internal/node/ ./internal/sim/ ./internal/core/ ./internal/member/ ./internal/service/ ./internal/vtime/
	$(GO) test -run='^$$' -fuzz=FuzzMemberPayload -fuzztime=15s ./internal/member

# Service soak: TestServeMeshSoak under -race —
# sustained multi-tenant load at the task service over a real TCP mesh
# (admission rejections, fair-share dispatch) while executors drain, join
# late, sit behind a healing partition (detector down, rejoin with a
# bumped incarnation, link not evicted) and fail-stop and restart, with
# exactly-once accounting and no leaked goroutine — plus the same Server
# and Executors on virtual time: the dispatch-liveness seed sweeps and the
# fixed-seed simulation, rerun and compared bit for bit (in-process and
# again through the distws-load -sim -verify CLI).
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

# Coverage ledger (ROADMAP's "The ledger's last unrun code"): the functions outside benchmark/, cmd/
# and examples/ that (1) nothing reaches and (2) only tests reach. "Reached
# by the program" is what coverage-instrumented builds of the commands and
# the benchmark execute on the exhibit run, the benchmark's smoke run, the
# serve-soak simulation, one real loopback service (a distws-serve front
# door and executor on a three-seat TCP mesh, with a distws-load client
# started before the executor: a closed-loop tenant, and an open-loop one
# whose Poisson arrivals meet a token-bucket rate limit) and distws-run's
# other faces (the relaxed
# kind on the goroutine runtime; a crash and lossy steals
# in the simulator, traced, with distws-trace rendering the trace in every
# format; the same faults under lifelines on the runtime, on turingring,
# whose ring visits every place, so the crashed one reaches its task count
# whatever the schedule; the same faults, traced, on the dataflow app
# cholesky on the runtime, where the crash is timed, since dag.Execute's
# tasks are all flexible and any place may run them: it fires on the wall
# clock at 1 ms, whatever the schedule, inside a run of over 10 ms; a join,
# a partition, a flap and a drain, in both modes, on dmg, whose ~20 ms
# runtime run outlasts the 1.2 ms timeline);
# "reached by tests" is the whole suite with
# -coverpkg=./... . List (1) must equal $(LEDGER_KEPT), which names each
# function kept on purpose (`file: Func reason`, in the ledger's order) and
# why: the target fails on a function nothing reaches that the file does
# not name (delete it, test it, or add it with its reason) and on a line of
# the file that is now reached (remove it). List (2) is where to ask whether
# the test or the program is missing something. Part of `check` (~50 s):
# timing-dependent paths flip rows of list (2) from run to run, which the
# target does not compare, while list (1) held on three runs in a row; needs
# go >= 1.20 for `go build -cover`, runs offline.
LEDGER_KEPT := testdata/ledger_kept.txt
LEDGER_CHURN := -join-place 3 -join-at 300us -partition 0,1 -partition-at 200us -partition-heal 1ms \
	-flap-place 2 -flap-at 500us -flap-down 500us -flap-up 500us -drain-place 1 -drain-at 1200us
coverage-ledger:
	@set -e; dir=$$(mktemp -d); pids=; trap 'kill $$pids 2>/dev/null || true; rm -rf "$$dir"' EXIT; \
	mkdir "$$dir/bin" "$$dir/prog" "$$dir/test"; \
	$(GO) build -cover -coverpkg=./... -o "$$dir/bin/" ./cmd/... ./benchmark; \
	export GOCOVERDIR="$$dir/prog"; \
	"$$dir/bin/distws-experiments" -seed 1 > /dev/null; \
	"$$dir/bin/benchmark" -quick -seconds 0.3 -out "" > /dev/null; \
	"$$dir/bin/distws-load" $(LOAD_SIM) > /dev/null; \
	port=$$((40000 + $$$$ % 20000)); \
	addrs=127.0.0.1:$$port,127.0.0.1:$$((port + 1)),127.0.0.1:$$((port + 2)); \
	"$$dir/bin/distws-serve" -addrs $$addrs -places 2 -place 0 -tenants "1:w=1;2:w=1,rate=200,burst=4" > /dev/null & front=$$!; pids="$$front"; \
	"$$dir/bin/distws-load" -addrs $$addrs -places 2 -seat 2 -spec "1:clients=2,jobs=40,task=svc.echo;2:open=500,jobs=20,task=svc.echo" > /dev/null & load=$$!; pids="$$pids $$load"; \
	sleep 0.3; \
	"$$dir/bin/distws-serve" -addrs $$addrs -places 2 -place 1 > /dev/null & exec1=$$!; pids="$$pids $$exec1"; \
	wait $$load; kill -TERM $$front; wait $$front $$exec1; pids=; \
	"$$dir/bin/distws-run" -mode runtime -app quicksort -places 2 -workers 2 -deque relaxed > /dev/null; \
	"$$dir/bin/distws-run" -mode sim -app quicksort -places 4 -workers 2 \
		-crash-place 1 -crash-at 1ms -drop 0.05 -trace "$$dir/run.events" > /dev/null; \
	"$$dir/bin/distws-run" -mode runtime -app turingring -policy lifeline -places 4 -workers 2 \
		-crash-place 1 -crash-after-tasks 50 -drop 0.05 > /dev/null; \
	"$$dir/bin/distws-run" -mode runtime -app cholesky -places 2 -workers 2 \
		-crash-place 1 -crash-at 1ms -drop 0.05 -trace "$$dir/dag.events" > /dev/null; \
	for mode in sim runtime; do \
		"$$dir/bin/distws-run" -mode $$mode -app dmg -places 4 -workers 2 $(LEDGER_CHURN) > /dev/null; \
	done; \
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

# Never-read fields, beside the coverage ledger: the struct fields and
# package-level consts and vars declared outside tests that no code reads,
# found by type-checking the module from source, tests included
# (neverread_test.go; fields with a json tag and embedded fields are
# exempt). The list must be empty: delete such a name, or read it. In the
# same pass, the fields that no code outside
# tests sets (a withDefaults-style `if o.N <= 0 { o.N = defaultN }` is
# not a set): that list must equal testdata/neverset_kept.txt
# (`file: Type.Field reason`). Behind the neverread build tag, so `test`
# does not run it. Part of `check` (~15 s cold, ~2 s warm).
never-read:
	$(GO) test -count=1 -tags neverread -run '^TestNoFieldIsNeverRead$$' .

# Fault-injection suite only (also part of `test`).
chaos:
	$(GO) test -v -run 'Chaos|Crash|Fault|Lossy|Drop|Evict|Await|PlaceDown|Spike|Rehom|Injector|Plan' \
		. ./internal/fault/ ./internal/comm/ ./internal/sim/ ./internal/core/
