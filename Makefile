# Developer entry points. CI (.github/workflows/ci.yml) fans these out
# across parallel jobs — lint (vet+build), test, race, bench-smoke,
# fuzz-smoke, and golden-check — instead of one serial `make ci`; the
# aggregate `ci` target remains the local equivalent of the full matrix.

GO ?= go

.PHONY: all build vet test race bench-smoke bench bench-json scale-json scale-smoke wire-json wire-smoke wire-multipath-smoke policy-json policy-smoke shard-determinism experiments metrics fuzz-smoke golden-check invariant-sweep multipath-chaos cover ci

all: vet build test

build:
	$(GO) build ./...

# bench/ is its own module (repro/bench, replacing repro with ../), so
# ./... at the root never compiles it; vet and test it explicitly, or a
# change deleting something only bench/ uses would first fail in
# bash bench/run.sh.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

test:
	$(GO) test ./...
	cd bench && $(GO) test ./...

# The parallel experiment runner, the sharded simulator's epoch driver
# and the live wire engine are the repo's intentional concurrency; -race
# on every change keeps them honest. The bench module's wire engine and
# striping harnesses are concurrent too, and ./... at the root never
# compiles that module (see vet), so it gets its own pass.
race:
	$(GO) test -race ./...
	cd bench && $(GO) test -race ./...

# One-iteration smoke of the suite benchmarks, then a quick measurement
# run compared against the committed baseline: catches regressions that
# break the benches, ns/op regressions, and allocs/op growth in the same
# pass. allocs/op is gated at zero tolerance: the minimum over -iters
# runs is compared exactly, though it still moves by a few allocations
# from run to run on allocation-heavy experiments (ROADMAP.md's first
# open item), so this gate can fail on an unchanged tree. The
# ns/op gate's default tolerance is 10% (see tussle-bench -compare); CI
# machines are noisy and the fastest experiments run in microseconds,
# where scheduler jitter alone moves ns/op by tens of percent, so this
# target loosens it to 50% — still far below the multiples a real
# hot-path regression produces.
bench-smoke:
	$(GO) test -run='^$$' -bench='BenchmarkAllExperiments' -benchtime=1x -benchmem .
	$(GO) run ./cmd/tussle-bench -quiet -json /tmp/bench-smoke.json -iters 5 >/dev/null
	$(GO) run ./cmd/tussle-bench -compare -tolerance 0.5 BENCH_suite.json /tmp/bench-smoke.json

# Full benchmark pass over every per-experiment benchmark.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem .

# Regenerate the recorded perf baseline (per-experiment ns/op and
# allocs/op plus sequential-vs-parallel suite wall time).
bench-json:
	$(GO) run ./cmd/tussle-bench -quiet -json BENCH_suite.json >/dev/null

# Regenerate the committed scale perf baseline: end-to-end sharded-core
# runs at 1k/10k/100k nodes (the BenchmarkScaleForward sweep as
# committable JSON, gated by the same -compare machinery as
# BENCH_suite.json).
scale-json:
	$(GO) run ./cmd/tussle-bench -scale-json BENCH_scale.json -iters 2

# Scale smoke: a 100k-node, 2M-packet run through the sharded core
# (sized to finish in well under five minutes on a 2-core runner); then
# the 100k-node, 1M-packet chaos digest at seeds 42 and 7 on 2 shards and
# at seed 42 on 4 shards, compared byte for byte with the committed
# bench/testdata/scale_seed*.txt (which shard-determinism cannot catch:
# it only compares shard counts with each other, so a change shifting
# all of them alike passes it; and its 5k-node graph is too small for
# hubs to dominate the partition); then the seed-42, 2-shard digest once
# more at GOMAXPROCS=1, where the sink routing tables are built by one
# worker instead of one per P; then a quick scale measurement compared
# against the committed baseline. Every chaos drain must also execute
# exactly its pinned event count (netsim prints the count on stderr):
# sim-scale's rel_time is drain time per event, so a change in the events
# a packet costs has to show here, as a deliberate change to these
# counts, not as a silent move in rel_time. The count includes one copy
# of each chaos fault per shard, so it is pinned per shard count, and the
# 4-shard pin is what catches a change in how faults are replicated.
scale-smoke:
	$(GO) run ./cmd/netsim -nodes 100000 -shards 2 -packets 2000000 -seed 42
	@for run in 42/2/7759830 7/2/7859434 42/4/7760558; do \
	  seed=$${run%%/*}; rest=$${run#*/}; shards=$${rest%/*}; events=$${rest#*/}; \
	  $(GO) run ./cmd/netsim -nodes 100000 -shards $$shards -packets 1000000 -chaos -seed $$seed 2>/tmp/scale-digest.err > /tmp/scale-digest.out || { cat /tmp/scale-digest.err; exit 1; }; \
	  cmp /tmp/scale-digest.out bench/testdata/scale_seed$$seed.txt || { echo "scale-smoke: seed $$seed at $$shards shards: digest differs from bench/testdata/scale_seed$$seed.txt"; exit 1; }; \
	  grep -q " $$events events in " /tmp/scale-digest.err || { echo "scale-smoke: seed $$seed at $$shards shards: the drain did not execute $$events events:"; cat /tmp/scale-digest.err; exit 1; }; \
	done; \
	GOMAXPROCS=1 $(GO) run ./cmd/netsim -nodes 100000 -shards 2 -packets 1000000 -chaos -seed 42 2>/dev/null > /tmp/scale-digest.out || exit 1; \
	cmp /tmp/scale-digest.out bench/testdata/scale_seed42.txt || { echo "scale-smoke: seed 42 at 2 shards, GOMAXPROCS=1: digest differs from bench/testdata/scale_seed42.txt"; exit 1; }; \
	echo "scale-smoke: 100k-node chaos digests match bench/testdata (seeds 42+7 on 2 shards, seed 42 on 4, seed 42 on 2 at GOMAXPROCS=1); drain event counts match (seeds 42+7 on 2 shards, seed 42 on 4)"
	$(GO) run ./cmd/tussle-bench -scale-json /tmp/scale-smoke.json -iters 2
	$(GO) run ./cmd/tussle-bench -compare -tolerance 0.5 BENCH_scale.json /tmp/scale-smoke.json

# Regenerate the committed wire perf baseline: the live UDP engine's
# decision kernel and loopback round trip, per-packet ns/op and
# allocs/op in the same JSON schema -compare gates everything else with.
wire-json:
	$(GO) run ./cmd/tussle-bench -wire-json BENCH_wire.json -iters 3

# Wire smoke (<2 min): the real tussled binary serving TIP over real
# UDP — background server, blast client pacing against the echoes, then
# SIGINT to exercise the shutdown/stats path; the grep fails the target
# if the server's final counters never appear. A quick wire measurement
# then gates perf against the committed baseline (tolerance rationale as
# in bench-smoke).
wire-smoke:
	$(GO) build -o /tmp/tussled-smoke ./cmd/tussled
	/tmp/tussled-smoke -listen 127.0.0.1:19099 -echo >/tmp/wire-smoke.log 2>&1 & \
	  pid=$$!; sleep 1; \
	  /tmp/tussled-smoke -blast 127.0.0.1:19099 -count 50000 -echo || { kill $$pid; exit 1; }; \
	  kill -INT $$pid; wait $$pid
	grep -q 'received=' /tmp/wire-smoke.log
	grep -q 'delivered=' /tmp/wire-smoke.log
	$(GO) run ./cmd/tussle-bench -wire-json /tmp/wire-smoke.json -iters 2
	$(GO) run ./cmd/tussle-bench -compare -tolerance 0.5 BENCH_wire.json /tmp/wire-smoke.json

# Wire-multipath smoke (<2 min): striped >=10MB transfers over real UDP
# through the tussled binary, twice. Run 1: shortest-k against a server
# whose path-2 impairment starts enabled — SIGUSR1 lifts it mid-run —
# and the transfer must still complete byte-exact (the blast side's
# payload sha256 equals the server's reassembled stream sha256) with at
# least one demotion recorded. Run 2: loss-adaptive against a clean
# server — all three paths must carry segments. A quick wire measurement
# then gates the multipath round-trip row (ns/op and its allocs/op at
# zero tolerance) against the committed baseline.
wire-multipath-smoke:
	$(GO) build -o /tmp/tussled-mp ./cmd/tussled
	/tmp/tussled-mp -listen 127.0.0.1:19199 -node 1 -mprecv 7777 -impair-path 2 -impair-port 7777 -impair-on >/tmp/mp-smoke1.log 2>&1 & \
	  pid=$$!; sleep 1; \
	  { sleep 2; kill -USR1 $$pid 2>/dev/null; } & \
	  /tmp/tussled-mp -blast 127.0.0.1:19199 -multipath -mpstrategy shortest-k -mpbytes 10485760 -src 2.1 -dst 1.1 > /tmp/mp-blast1.out || { kill $$pid; exit 1; }; \
	  kill -INT $$pid; wait $$pid
	grep -q 'done=true' /tmp/mp-blast1.out
	grep -Eq 'demotions=[1-9]' /tmp/mp-blast1.out
	test "$$(grep -o 'payload-sha256=[0-9a-f]*' /tmp/mp-blast1.out | cut -d= -f2)" = "$$(grep -o 'stream-sha256=[0-9a-f]*' /tmp/mp-smoke1.log | cut -d= -f2)"
	/tmp/tussled-mp -listen 127.0.0.1:19199 -node 1 -mprecv 7777 >/tmp/mp-smoke2.log 2>&1 & \
	  pid=$$!; sleep 1; \
	  /tmp/tussled-mp -blast 127.0.0.1:19199 -multipath -mpstrategy loss-adaptive -mpbytes 10485760 -src 2.1 -dst 1.1 > /tmp/mp-blast2.out || { kill $$pid; exit 1; }; \
	  kill -INT $$pid; wait $$pid
	grep -q 'done=true' /tmp/mp-blast2.out
	test "$$(grep -o 'payload-sha256=[0-9a-f]*' /tmp/mp-blast2.out | cut -d= -f2)" = "$$(grep -o 'stream-sha256=[0-9a-f]*' /tmp/mp-smoke2.log | cut -d= -f2)"
	test "$$(grep -c 'multipath-recv: path=' /tmp/mp-smoke2.log)" -eq 3
	$(GO) run ./cmd/tussle-bench -wire-json /tmp/mp-smoke.json -iters 2
	$(GO) run ./cmd/tussle-bench -compare -tolerance 0.5 BENCH_wire.json /tmp/mp-smoke.json

# Regenerate the committed policy-VM perf baseline: per-eval ns/op and
# allocs/op for the scalar / membership / nested policy shapes through
# the pooled dense-slot VM path (the BenchmarkPolicyEval sweep as
# committable JSON, gated by the same -compare machinery).
policy-json:
	$(GO) run ./cmd/tussle-bench -policy-json BENCH_policy.json -iters 5

# Policy-VM smoke (<2 min): the differential suite (compiled VM vs
# tree-walking reference on tabled, random, and fuzz-corpus inputs), the
# budget-exhaustion canary (a 100k-clause hostile policy must stop at its
# step budget, not hang), then a quick policy measurement gated against
# the committed baseline — allocs/op at zero tolerance, so the compiled
# scalar steady state staying zero-alloc is CI-enforced (tolerance
# rationale as in bench-smoke).
policy-smoke:
	$(GO) test -run 'TestVMDifferential|TestRunSlotsMatchesRun|TestCompiledDocumentMatchesEvaluate|FuzzCompileEval' -count=1 ./internal/policy
	$(GO) test -run 'TestBudget|TestAllocBudgetAccounting|TestVMScalarZeroAlloc|TestEvalUnknownAttrZeroAlloc' -count=1 -v ./internal/policy | grep -q 'PASS.*TestBudgetCanaryDeepPolicy'
	$(GO) run ./cmd/tussle-bench -policy-json /tmp/policy-smoke.json -iters 3
	$(GO) run ./cmd/tussle-bench -compare -tolerance 0.5 BENCH_policy.json /tmp/policy-smoke.json

# Shard-count determinism: the scale digest on stdout AND the merged
# -metrics snapshot must be byte-identical at shards 1/2/4/8, sequential
# or parallel, with and without chaos, at two seeds.
shard-determinism:
	@for seed in 42 7; do \
	  for chaos in "" "-chaos"; do \
	    $(GO) run ./cmd/netsim -nodes 5000 -shards 1 -seed $$seed $$chaos -metrics /tmp/shard-ref-m.json 2>/dev/null > /tmp/shard-ref.out || exit 1; \
	    for k in 2 4 8; do \
	      $(GO) run ./cmd/netsim -nodes 5000 -shards $$k -seed $$seed $$chaos -metrics /tmp/shard-par-m.json 2>/dev/null > /tmp/shard-par.out || exit 1; \
	      cmp /tmp/shard-ref.out /tmp/shard-par.out || { echo "shard-determinism: shards=$$k parallel seed=$$seed chaos='$$chaos' digest diverged"; exit 1; }; \
	      cmp /tmp/shard-ref-m.json /tmp/shard-par-m.json || { echo "shard-determinism: shards=$$k parallel seed=$$seed chaos='$$chaos' metrics diverged"; exit 1; }; \
	      $(GO) run ./cmd/netsim -nodes 5000 -shards $$k -parallel=false -seed $$seed $$chaos -metrics /tmp/shard-seq-m.json 2>/dev/null > /tmp/shard-seq.out || exit 1; \
	      cmp /tmp/shard-ref.out /tmp/shard-seq.out || { echo "shard-determinism: shards=$$k serial seed=$$seed chaos='$$chaos' digest diverged"; exit 1; }; \
	      cmp /tmp/shard-ref-m.json /tmp/shard-seq-m.json || { echo "shard-determinism: shards=$$k serial seed=$$seed chaos='$$chaos' metrics diverged"; exit 1; }; \
	    done; \
	  done; \
	done; \
	echo "shard-determinism: digests and metrics identical at shards 1/2/4/8 (serial+parallel, +/-chaos, seeds 42+7)"

# Regenerate EXPERIMENTS.md from the current code.
experiments:
	$(GO) run ./cmd/tussle-bench -markdown > EXPERIMENTS.md

# Run the instrumented suite and write the metric snapshot (suite
# aggregate plus per-experiment breakdown). Deterministic per seed.
metrics:
	$(GO) run ./cmd/tussle-bench -quiet -metrics /tmp/metrics.json >/dev/null

# Short fuzz passes, each seeded from the committed corpus in
# */testdata/fuzz; CI's fuzz-smoke job runs this target. The regexps are
# anchored because -fuzz must match exactly one target.
fuzz-smoke:
# The TIP decoder: safety invariants on arbitrary bytes, then the
# DecodeReuse-vs-DecodeFrom differential.
	$(GO) test -fuzz='^FuzzDecode$$' -fuzztime=30s ./internal/packet
	$(GO) test -fuzz='^FuzzDecodeReuse$$' -fuzztime=30s ./internal/packet
# The chaos plan parser's canonical-form round trip, and the shrinker's.
	$(GO) test -fuzz='^FuzzFaultPlan$$' -fuzztime=30s ./internal/chaos
	$(GO) test -fuzz='^FuzzShrinkRoundTrip$$' -fuzztime=30s ./internal/invariant
# Compiler/VM differential: random TPL programs must evaluate
# identically (values and error strings) on the metered VM and the
# tree-walking reference, and agree under starved budgets.
	$(GO) test -fuzz='^FuzzCompileEval$$' -fuzztime=30s ./internal/policy
# Disjoint-path discovery: arbitrary topology bytes must never panic,
# and returned path sets must be simple, link-disjoint, and
# deterministic.
	$(GO) test -fuzz='^FuzzDisjointPaths$$' -fuzztime=30s ./internal/routing/srcroute
# Candidate-path enumeration: on arbitrary endpoints and bounds,
# Discover returns exactly a visited-set DFS oracle's candidates,
# latencies and order, each path simple and within maxLen.
	$(GO) test -fuzz='^FuzzDiscover$$' -fuzztime=30s ./internal/routing/srcroute
# The shortest-path search every router shares, on tie-heavy digraphs:
# distances equal Bellman-Ford's, first hops equal an O(V²) scan's,
# reversed edge lists change nothing, and a search stopped at a
# destination returns the full search's path.
	$(GO) test -fuzz='^FuzzShortestPaths$$' -fuzztime=30s ./internal/topology
# The frozen adjacency against the map-based graph it replaced: graphs
# with ID gaps, isolated nodes, multi-edges and nodes or links added
# after a read give the oracle's neighbours, links, relationships, ID
# list and bound, and an append to a returned row leaves the next row
# alone.
	$(GO) test -fuzz='^FuzzFrozenGraph$$' -fuzztime=30s ./internal/topology
# Hostile ACK bytes against the multipath sender: no panic, the
# cumulative ACK clamped to the stream, estimators in-domain, the Karn
# rule held, no timers leaked after the terminal state.
	$(GO) test -fuzz='^FuzzMultipathAck$$' -fuzztime=30s ./internal/transport/multipath
# Hostile data segments against the multipath receiver: no panic,
# foreign traffic refused, and every ACK framed from the per-echo
# template byte-identical to packet.Serialize's (the corpus holds two
# routes that collide under FNV-1a on one echo).
	$(GO) test -fuzz='^FuzzReceiverAck$$' -fuzztime=30s ./internal/transport/multipath
# Segments in arbitrary order, repeated or missing, against the
# multipath receiver's reassembly: Out gets exactly the longest
# contiguous prefix, each segment once and in order, as the
# keep-everything reference reassembles it; Bytes and Dups agree.
	$(GO) test -fuzz='^FuzzReassembly$$' -fuzztime=30s ./internal/transport/multipath

# Property-based invariant sweeps: seeded random topologies, traffic, and
# fault plans run with the runtime invariant checker armed (see
# cmd/tussle-check); CI's invariant-sweep job runs this target. Two fixed
# seeds so the CI corpus is reproducible; failures shrink to minimal
# reproducers automatically.
invariant-sweep:
# 500 random topology/traffic/fault-plan trials per seed, all nine
# invariants armed, automatic shrinking on failure.
	$(GO) run ./cmd/tussle-check -trials 500 -seed 42
	$(GO) run ./cmd/tussle-check -trials 500 -seed 7
# The same discipline over the sharded core: 500 randomized scale
# scenarios each (topology size, traffic, chaos, shard count all
# seed-derived) on the parallel driver, with a checker on every shard.
	$(GO) run ./cmd/tussle-check -sharded -trials 500 -seed 42
	$(GO) run ./cmd/tussle-check -sharded -trials 500 -seed 7

# Multipath-chaos smoke: both multipath experiments (E29 availability
# under the standard fault schedule, E30 partition reconvergence) must
# render byte-identically at -parallel 1 and 4 for two seeds — the
# striped data plane's determinism pinned end to end — followed by
# invariant sweeps with every generated transfer forced onto the
# multipath sender.
multipath-chaos:
	@for seed in 42 7; do \
	  $(GO) run ./cmd/tussle-bench -seed $$seed -only E29,E30 -parallel 1 > /tmp/mp-seq.out || exit 1; \
	  $(GO) run ./cmd/tussle-bench -seed $$seed -only E29,E30 -parallel 4 > /tmp/mp-par.out || exit 1; \
	  cmp /tmp/mp-seq.out /tmp/mp-par.out || { echo "multipath-chaos: seed $$seed E29/E30 digest diverged across -parallel 1/4"; exit 1; }; \
	  $(GO) run ./cmd/tussle-check -multipath -trials 300 -seed $$seed || exit 1; \
	done; \
	echo "multipath-chaos: E29/E30 digests identical across -parallel 1/4 (seeds 42+7); forced-multipath sweeps clean"

# Per-package statement coverage (the CI cover gate publishes this table
# in the job summary).
cover:
	$(GO) test -cover ./...

# Golden-determinism guard (the first step of CI's golden-determinism
# job): regenerating EXPERIMENTS.md from the current code must be a
# no-op, or a behavior change slipped through without its goldens being
# regenerated intentionally.
golden-check: experiments
	git diff --exit-code EXPERIMENTS.md

ci: vet build test race bench-smoke fuzz-smoke golden-check invariant-sweep multipath-chaos shard-determinism scale-smoke wire-smoke wire-multipath-smoke policy-smoke
