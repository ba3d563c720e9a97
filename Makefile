GO ?= go

.PHONY: tier1 build vet test race chaos crash fuzz replication mutants ab loc profile cover clean

# Per-target budget for the fuzz smoke (`make fuzz FUZZTIME=2m` to go deep).
FUZZTIME ?= 15s

# Where `make profile` drops its pprof output.
PROFILE_DIR ?= profiles

# The gate: build, gofmt (any file `gofmt -l .` names fails it), vet, the
# full test suite under the race detector, and the allocation guards (a
# separate non-race invocation: the race runtime's bookkeeping inflates
# allocation counts, so the guards skip themselves under -race).
# TestServingPathZeroAlloc holds predict/insert/WAL-append and a hit's
# recost (RebindRecost) at exactly zero allocs; TestRunPathAllocBudget holds
# the full batched Run path under its 10 allocs/op budget and
# TestMissPathAllocBudget the miss path (NULL predict, OptimizeMemo, intern,
# execute, feedback on Q3/Q4/Q8) under its 50;
# TestDurableApplyAllocBudget holds the learner → sink → wal.Log write path,
# for a batch of points with and without correction observations, to what
# the same batch allocates with no log attached;
# TestExecSteadyStateAllocs holds a warmed CompiledPlan.Exec to its result's
# three allocations whichever kernel runs, TestCountOnlyJoinRecordsNoPairs a
# join under a bare COUNT(*) to no match pair, no group id and its result's
# allocations on every join kernel, TestCountedJoinRecordsNoPairs Q1's join
# under its COUNT-only GROUP BY, above the counted join's guard, to one tuple,
# multiplicity and group id per build tuple and its result's allocations, and
# below it to the pair path's answer, TestUnorderedScanBuildsNoBitmap Q3's
# scans under its bare COUNT(*) to the rows they are read off in place, no
# range bitmap and the result's allocations, TestOrderedScanWritesNoVector
# Q0's and Q1's scans that hand their aggregate or hash-join probe the range
# bitmap to no slot vector, the extracting plan's cardinalities and the
# result's allocations, and TestColumnFactsLearnedOnce a
# second Compile to no column scan and no bitmap build; TestFreezePublishCost
# holds a model publish to the blocks one insert touched,
# TestNullStepZeroAlloc a NULL learner step — the model query and the
# optimizer call, its label aliasing the step's point — to zero, and
# TestTryObserveFoldsWithoutAllocating a hit's fold of its own correction
# observations into the learner (taken by TryLock, no log, no publish) to
# zero;
# TestCatalogBuildAllocBudget holds catalog.Build on the benchmark's database
# to 300 allocations and 0.5 MB (212 and 0.32 MB measured: no per-row set of
# distinct values, no copy of a column its index already orders);
# TestOptimizeMemoAllocBudget holds OptimizeMemoHeld on Q3, Q4 and Q8 to one
# allocation above the 3 it measures building the winner and the 1 when the
# caller holds it (nothing per candidate);
# TestRunHandlerAllocBudget holds ppcserve's /run handler to its Run's
# allocations plus the request's own. The race line also runs
# TestCommandsLinkNoBenchHarness, which holds what the serving binaries link
# to an allow-list and keeps the paper's offline evaluation offline: the
# bench/ module links neither internal/experiments nor internal/baselines,
# and no non-test package but internal/experiments imports internal/baselines;
# it also keeps the durability protocol in core: internal/stats links no
# internal/wal; and it keeps test code in _test.go files: no non-test
# package of the module imports testing.
# The benchmark harness in bench/ is a module of its own that imports this
# one's internal packages, so it is vetted and self-tested here too: an
# internal refactor that breaks it must fail the gate, not the next benchmark
# run.
tier1:
	$(GO) build ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l . names:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -run 'TestServingPathZeroAlloc|TestRunPathAllocBudget|TestMissPathAllocBudget|TestDurableApplyAllocBudget|TestExecSteadyStateAllocs|TestCountOnlyJoinRecordsNoPairs|TestCountedJoinRecordsNoPairs|TestUnorderedScanBuildsNoBitmap|TestOrderedScanWritesNoVector|TestColumnFactsLearnedOnce|TestFreezePublishCost|TestNullStepZeroAlloc|TestTryObserveFoldsWithoutAllocating|TestCatalogBuildAllocBudget|TestOptimizeMemoAllocBudget|TestRunHandlerAllocBudget' -count=1 . ./internal/executor ./internal/core ./internal/catalog ./internal/optimizer ./cmd/ppcserve
	$(GO) vet -C bench ./...
	$(GO) test -C bench -short ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The fault-injection / optimizer-outage-keeps-hits / snapshot-damage suite
# (TestChaosOptimizerOutageKeepsHits: a failed learner step falls back to
# the optimizer for its own run, so a warm template keeps its cache hits
# through an outage), a precision collapse answered by the learner's drift
# reset and nothing else (TestChaosMispredictionResetsLearner under injected
# mispredictions,
# TestChaosServedDriftResets under a cost-model shift), and the feedback
# mailbox under load: every label sent through a two-slot mailbox lands,
# also when Close races the sends (TestNoFeedbackLossUnderLoad), a flush
# waits for the batch the applier has taken but not yet applied
# (TestFlushWaitsForTheBatchInFlight), SaveState under concurrent runs
# captures every acknowledged label (TestSaveStateUnderLoad), and runs,
# SaveState and MetricsSnapshot interleave on one hot template
# (TestHotTemplateStress).
chaos:
	$(GO) test -race -run 'TestChaos|TestConcurrent|TestParallel|TestNoFeedbackLossUnderLoad|TestFlushWaitsForTheBatchInFlight|TestSaveStateUnderLoad|TestHotTemplateStress' -v .

# The durability suite: crash-image recovery properties (a template that
# comes back in another shape among them, and WAL records pending a late
# Register surviving a checkpoint), one fsync per apply batch,
# degrade-to-cold triples, the log's numbering floor (a quiet restart and a
# lost wal/ never number a record below a restored watermark:
# TestDurableQuietRestartKeepsNumbering, TestDurableLostWALStartsNewLineage),
# LoadState refused by a durable System (TestDurableSystemRefusesLoadState),
# restored plans coming back compiled (a restart must not serve
# its cache slower than the process it replaced), and the kill-and-restart
# integration test against the real ppcserve binary.
crash:
	$(GO) test -race -run 'TestDurable|TestCrashRecovery|TestDegrade|TestRestoredPlansServeCompiled' -v .
	$(GO) test -race -run TestKillRestartRecovery -v ./cmd/ppcserve

# Short fuzz smoke over every decoder that reads crash- or peer-shaped
# bytes — the WAL's decoder of a run of frames (all record kinds; a ship
# batch is one such run), the WAL directory
# scanner/repairer, and FuzzDecode: one round-trip table over the checkpoint
# envelope (held to its degrade contract), the learner state stream and its
# tagged sections, the synopsis body (framed with a computed CRC, so
# mutations reach its bucket, transform and plan loops), the plan-tree codec
# and the seven wire messages, each held to no panic and decode → encode →
# decode to the same bytes — over the one replay switch, fed decoded frames of every kind and held to no panic
# and a learner state that still round-trips its own encoding, over the join
# enumerator, held to the node-building reference at
# fuzzer-chosen templates and points, over the frozen-block predict
# query, held to the map-walking reference at fuzzer-chosen synopsis states
# and points, over the compiled executor's key-consuming kernels, held
# to the tree-walk engine at fuzzer-chosen key-column shapes, operators,
# parameters and six tops (rows, a global aggregate, GROUP BY either key,
# a bare COUNT(*) whose join only counts and whose one-range scans read
# their runs, GROUP BY the build key with COUNTs alone, whose addressed-once
# hash join counts by bitmap), with scans that hand a global aggregate or a hash-join probe
# their bitmap and probes read above that extract it, over the template SQL parser — Register's outside input —
# held to a query or an error, to a query that prints as SQL parsing back to
# itself, and to one NewTemplate takes without a panic, and over the catalog
# histograms' running-count probes (FractionLE, RangeCount, Quantile), held
# with == to the bucket scans they replaced at fuzzer-chosen values and
# bucket counts, over the learner's blocks' peak density, held to bound
# what RangeCount counts at fuzzer-chosen blocks and ranges (the bound the
# predict vote rules plans out by), and over the catalog's statistics, held
# at fuzzer-chosen columns (ties, -0, infinities, NaN), indexed or not, to
# the sort.Slice index and the hashing, re-sorting catalog they replaced.
# Go runs one fuzz target per invocation, hence eleven runs.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzScan -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz 'FuzzDecode$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz FuzzReplayRecords -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzOptimizeMatchesReference -fuzztime $(FUZZTIME) ./internal/optimizer
	$(GO) test -run '^$$' -fuzz FuzzModelPredictMatchesReference -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzCompiledMatchesTreeWalk -fuzztime $(FUZZTIME) ./internal/executor
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/sqlparse
	$(GO) test -run '^$$' -fuzz FuzzProbeMatchesScan -fuzztime $(FUZZTIME) ./internal/histogram
	$(GO) test -run '^$$' -fuzz FuzzPeakBoundsRangeCount -fuzztime $(FUZZTIME) ./internal/histogram
	$(GO) test -run '^$$' -fuzz FuzzColumnStatsMatchReference -fuzztime $(FUZZTIME) ./internal/catalog

# The replication suite, bottom up: wire protocol and torn/corrupt frames,
# the WAL follower every ship loop reads (wal.Log.Follow: what the log has
# committed, across rotation and compaction, never a torn or short append's
# frame), leader/replica servers under fault injection (epoch fencing,
# admission, chaos), the client library (TestCallTimeout, which waits out
# three 2s call deadlines, runs here and not under cover's -short), the
# in-process System-level contracts (among them the lineage rule,
# TestReplicationLineageStableAcrossRestart: a restart that lost state is a
# new lineage; TestLeaderRestartCorruptCheckpointNewLineage: a replica
# fenced out by one ends byte-equal to the leader; and
# TestLeaderRestartFromOlderImageResnapshotsReplica: a replica past the
# restarted leader's log gets a snapshot), and finally the process-boundary
# failover test — leader under
# load, replica attached, leader SIGKILLed and restarted — against the real
# ppcserve and ppcreplica binaries. BenchmarkShipLoop (the leader's poll →
# batch path, per shipped record) runs once so it keeps compiling and running.
replication:
	$(GO) test -race ./internal/netproto ./internal/replica ./pkg/client
	$(GO) test -race -run TestFollower ./internal/wal
	$(GO) test -race -run 'TestReplication|TestLeaderReplica|TestLeaderRestart' -v .
	$(GO) test -race -run TestLeaderReplicaFailover -v ./cmd/ppcreplica
	$(GO) test -run '^$$' -bench BenchmarkShipLoop -benchtime 1x ./internal/replica

# The mutation check: each patch under testdata/mutants/ breaks the program
# on purpose (among them a rotation that ignores its sealed segment's fsync
# error, a replica state that applies a batch past a gap, a drain without
# its lock, a DecodeFrames that forgives a partial frame, a hit that folds
# on a durable template, a predict that allocates its scratch; each header
# says what it breaks) and names the test that must catch it.
# scripts/mutants.sh applies each to a temporary copy of the working tree,
# never to the tree itself, and fails if the named test passes on the
# mutant (or fails without it).
mutants:
	bash scripts/mutants.sh

# Same-runner A/B of one bench/ workload (hit_exec, miss_optimize,
# serve_durable, replica_predict): the working tree against git ref BASE,
# five alternating pairs of `bash bench/run.sh` at BENCHMARK.json's settings,
# held to BENCHMARK.json's bounds by `go run -C bench . -compare`. Exits 1 on
# a metric past its bound; the last stdout line is a BENCH_LEDGER.json row.
# This is CI's bench-ab gate; `make ab BASE=HEAD W=hit_exec` measures an
# uncommitted change.
ab:
	bash scripts/ab.sh "$(BASE)" "$(W)"

# Net non-test lines of Go outside bench/ since git ref BASE, working tree
# included: the number a simplicity PR reports (`make loc BASE=HEAD~1`).
loc:
	@git diff --numstat $(BASE) -- '*.go' ':!*_test.go' ':!bench' | \
		awk '{ a += $$1; d += $$2; printf "%6d %6d  %s\n", $$1, $$2, $$3 } \
		END { printf "%6d %6d  non-test Go outside bench/: net %+d\n", a, d, a - d }'

# CPU and heap profiles of the two Run paths and of opening a System, for
# chasing where the time goes: run.* is the hit path (BenchmarkEndToEndRun:
# hit_exec's shape — Q0 and Q1 alternating on the benchmark's database along
# 100-point trajectory paths at sigma 0.02, each point run once;
# executor-bound), miss.* the miss path (BenchmarkMissPathRun: Q3/Q4/Q8 at
# fresh uniform points on the benchmark's database, the miss_optimize
# workload's shape — NULL predict, OptimizeMemo, intern/compile, feedback —
# whose invoked/op stays near miss_optimize's 0.93 at any -benchtime), and
# open.* the open path every process takes before it serves (BenchmarkOpen:
# Open on the benchmark's database — generate, index, catalog — plus
# RegisterStandard). Go profiles one benchmark run per invocation. `go tool
# pprof $(PROFILE_DIR)/miss.cpu.pprof`, or `-sample_index=alloc_space` on a
# mem profile for allocation sites.
profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench 'BenchmarkEndToEndRun$$' -benchmem \
		-cpuprofile $(PROFILE_DIR)/run.cpu.pprof \
		-memprofile $(PROFILE_DIR)/run.mem.pprof \
		-o $(PROFILE_DIR)/ppc.test .
	$(GO) test -run '^$$' -bench 'BenchmarkMissPathRun$$' -benchmem \
		-cpuprofile $(PROFILE_DIR)/miss.cpu.pprof \
		-memprofile $(PROFILE_DIR)/miss.mem.pprof \
		-o $(PROFILE_DIR)/ppc.test .
	$(GO) test -run '^$$' -bench 'BenchmarkOpen$$' -benchmem \
		-cpuprofile $(PROFILE_DIR)/open.cpu.pprof \
		-memprofile $(PROFILE_DIR)/open.mem.pprof \
		-o $(PROFILE_DIR)/ppc.test .
	@echo "profiles written to $(PROFILE_DIR)/"

# Which functions does no test reach? A merged -coverpkg=./... profile of
# `go test -short ./...` (written to $(PROFILE_DIR)/cover.out), then every
# function at 0.0 % outside cmd/, examples/ and internal/experiments, and
# the total. It fails when any function but one
# reads 0.0 %: a function no test reaches gets a test or goes. The one is
# workload.MustDrifting, which bench/ calls (bench/ is a module of its own,
# so what its harness calls of this module's packages does not count here).
# A failing test
# fails the target too, after printing the test output less its coverage
# lines (kept whole in $(PROFILE_DIR)/cover.log). A function with an empty
# body reads 0.0 % even when it is called, so none is kept.
cover:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -short -coverpkg=./... -coverprofile=$(PROFILE_DIR)/cover.out ./... > $(PROFILE_DIR)/cover.log; \
		status=$$?; grep -v 'coverage: ' $(PROFILE_DIR)/cover.log; exit $$status
	@$(GO) tool cover -func=$(PROFILE_DIR)/cover.out | \
		grep -vE '^repro/(cmd|examples|internal/experiments)/' | \
		awk '$$NF == "0.0%" { print; \
			if (!($$1 ~ /^repro\/internal\/workload\/drift\.go:/ && $$2 == "MustDrifting")) bad++ } \
			$$1 == "total:" { total = $$0 } \
			END { print total; if (bad) { print bad " function(s) at 0.0 % beyond the one allowed"; exit 1 } }'

clean:
	$(GO) clean ./...
