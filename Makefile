# Development / CI entry points. `make check` is the gate every change
# must pass, from a fresh clone with no other step first:
#
#   vet, build, test   the whole module (tier 1 is build + test); vet also
#                      fails on a non-empty `gofmt -l .`
#   race               the race detector over the concurrency-heavy
#                      packages, -short so the load comparisons and the
#                      fault-injection latency schedules stay affordable;
#                      ./internal/server brings TestCacheLinearizable
#                      (writers and readers on overlapping word sets
#                      through the reply cache) beside TestCacheConcurrent,
#                      TestCacheSlotReuse (hits reading shared ad
#                      fragments while other shards free and reuse their
#                      slots), the segmented-LRU policy tests (scan
#                      resistance, promotion, demotion, refresh) and the
#                      second-sight admission tests
#                      (TestCacheAdmissionReplay: two misses per distinct
#                      query of the hot stream's shape, never a third;
#                      TestCacheFirstSightingsHoldNoBodies: ghosts own
#                      their keys only); ./internal/corpus brings the
#                      corpus reader's blocks, parsed side by side
#                      (TestCorpusReadChunked over block sizes and worker
#                      counts)
#   recovery-smoke     kill -9 a churning child, recover, compare with the
#                      serial oracle; crash-at-every-write atomicity;
#                      repair leaves what recovery leaves
#   simsmoke           pinned whole-stack simulation seeds vs the oracle,
#                      the cached-server target among them
#   migratesmoke       pinned elastic-resharding seeds (handoffs through
#                      begin/load/catch-up/cutover), and the tail-latency
#                      bar across a live split/migrate/merge
#   overloadsmoke      budget/quarantine/shedding and the 4x flood bar
#   adaptsmoke         periodic re-optimization: the tick's skip rules, the
#                      loop (and Close joining it), the one installer (one
#                      locked build, whatever the churn), the solver's
#                      properties and the drift bar
#   fuzzsmoke          ten seconds on each decoder of foreign bytes (the
#                      snapshot file and WAL decoders among them) and on
#                      the reply encoders held to encoding/json
#   benchsmoke         one iteration of every root `go test` benchmark, of
#                      internal/server's and of internal/shard's
#   benchmod           vet + test of bench/, the end-to-end benchmark
#                      (its own module: `go test ./...` never compiles it)
#   crossbuild         vet under GOARCH=386 and the short tests of the
#                      packages whose decoders and bounds a 32-bit int
#                      constrains; builds for darwin/arm64 and windows,
#                      where an index region is heap memory, not a mapping
#
# Performance is measured by bench/ alone (BENCHMARK.json names its
# workloads and metrics; `bash bench/run.sh` runs it). `make soak`,
# `make cover` and `make size` (the two numbers a simplicity PR reports)
# are not part of the gate.

GO ?= go

.PHONY: check vet build test race recovery-smoke simsmoke migratesmoke \
	overloadsmoke adaptsmoke soak cover size fuzzsmoke benchsmoke benchmod crossbuild clean

check: vet build test race recovery-smoke simsmoke migratesmoke overloadsmoke adaptsmoke fuzzsmoke benchsmoke benchmod crossbuild

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l . is not empty:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short . ./internal/core ./internal/corpus ./internal/server ./internal/multiserver \
		./internal/faultnet ./internal/shard ./internal/durable ./internal/diskfault \
		./internal/rewrite ./internal/sim ./internal/simclock ./internal/setcover \
		./internal/optimize ./cmd/adserve

# The crash-recovery stress skips under -short (it forks and SIGKILLs a
# child), so the smoke target runs it explicitly, under the race
# detector, together with the crash-at-every-write atomicity sweep and
# the check that adfsck -repair leaves the directory recovery would.
recovery-smoke:
	$(GO) test -race -run 'TestCrashRecoveryStress|TestSnapshotAtomicUnderCrash|TestRepairLeavesWhatRecoveryLeaves' \
		-v . ./internal/diskfault ./internal/durable

# Seeded deterministic simulation smoke: a few fixed seeds through the
# whole stack (in-memory, durable with torn-crash restarts, compressed
# snapshots, the sharded+replicated cluster behind fault proxies on its
# frozen route) against
# the brute-force oracle, under the race detector. Fully deterministic,
# so it doubles as a regression gate for the seeds in
# internal/sim/sim_test.go (see TESTING.md for the replay workflow).
# Then, by name and with its verdicts printed, the cached-server target:
# the same schedules through the HTTP handler and its reply cache on a
# crash-restarted durable index, every query asked twice and every cached
# reply re-asked after each write.
simsmoke:
	$(GO) test -race -short -run 'TestSim' ./internal/sim
	$(GO) test -race -short -run 'TestSimCachedServer' -v ./internal/sim

# Elastic-resharding regression gate: the pinned migration seeds and the
# handcrafted split/migrate/merge scenario from internal/sim, which
# interleave live handoffs with replica kills, partitions, and
# mid-handoff mutations, under the race detector; then, without it (the
# bar is wall-clock), the tail-latency acceptance test: closed-loop load
# across a live split, migration and merge of a 20k-ad cluster, zero
# failed queries and p99(during) <= 2x p99(before), and a writer
# inserting through a live split never stalled on the cluster lock. The
# sim seeds compare (ID, bid, click rate) on the wire, and the record-path
# tests carry the records request through failover, hedging, the breaker
# probe, a dead shard and a live split, again under the race detector.
migratesmoke:
	$(GO) test -race -run 'TestSimElastic' -v ./internal/sim
	$(GO) test -race -run 'TestRecordsOneExchangePerShard|TestRecordsFollowTheCluster|TestRecordsThroughEveryAttemptPath|TestMergeKeepsRecordsWithTheirIDs' \
		-v ./internal/shard
	$(GO) test -run 'TestReshardTailLatency|TestInsertNotStalledByHandoff' -v ./internal/shard

# Overload-armor regression gate: the sim overload scenario (every
# query re-run under a tight cost budget and held to the truncation
# contract against the oracle), panic containment (a poisoned backend
# answers a typed error frame and keeps serving), the budget/quarantine
# HTTP path, and the adversarial-flood acceptance test, under the race
# detector; with them the fail-closed rules of the wire: a wrong or corrupt
# answer to a records request is a typed error, pooled reply
# buffers never cross queries, query text led by a tag byte is text, and an
# elastic shard's deadline and cutoff flags reach the front end's reply.
overloadsmoke:
	$(GO) test -race -run 'TestSimOverloadBudget' -v ./internal/sim
	$(GO) test -race -run 'TestPanicContainment|TestDeadline|TestBackendFlagsOverWire|TestRecordsOverWire|TestRecordCountOverflowRejected' \
		./internal/multiserver
	$(GO) test -race -run 'TestCorruptShardReplyIsAnError|TestFanOutScratchIsolation|TestTagByteLedQueryText|TestElasticFlagsReachTheReply' \
		./internal/shard
	$(GO) test -race -run 'TestSearchBudget|TestSearchPanicContainment|TestLimiterShed|TestQuarantine|TestOverloadFlood|TestElasticFlagsReachTheReply' \
		-v ./internal/server

# Re-mapping regression gate, under the race detector: the drift
# acceptance test (a ticking index holds its modeled-cost p99 through a
# topic shift a frozen control degrades under), the tick's tests (no
# traffic: nothing runs; no modeled gain: no rebuild, epoch, snapshot or
# file; a gain: one install), the loop's (start/stop, beside queries and
# churn, and Close joining it before the store closes), the one
# installer's tests over Optimize, ApplyMapping and a tick (each install is
# one build of the live corpus under the writer lock: it folds no overlay
# first, and inserts landing between plan and install cannot fail it), and
# the one solver's tests (incremental step ≡ batch greedy, never raising
# cost, and TestOptimizeQualityPin: Optimize within 1.005x of the modeled
# cost the deleted monolithic greedy reached).
adaptsmoke:
	$(GO) test -race -run 'TestAdapt|TestStartStopAdapt|TestStopAdaptJoinsTick|TestCloseStopsAdapt|TestRemapInstallers|TestInstallIsOneBuild|TestInstallUnderChurn|TestIncremental|TestGaps|TestPlacement|TestOptimizeQualityPin' \
		-v . ./internal/setcover ./internal/optimize

# Longer randomized soak: more ops per schedule and a block of seeds
# that rotates daily (seedbase = days since epoch), so successive days
# explore fresh schedules while any day's failure stays reproducible
# from the seed printed in the log. Override SOAK_OPS / SOAK_SEEDS /
# SOAK_SEEDBASE to pin.
SOAK_OPS ?= 3000
SOAK_SEEDS ?= 8
SOAK_SEEDBASE ?= $(shell expr $$(date +%s) / 86400)
soak:
	$(GO) test -run 'TestSim$$' -timeout 30m ./internal/sim \
		-sim.ops=$(SOAK_OPS) -sim.seeds=$(SOAK_SEEDS) -sim.seedbase=$(SOAK_SEEDBASE) -v

# Coverage over the full module; writes cover.out and prints the total.
cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic ./...
	$(GO) tool cover -func=cover.out | tail -1

# What a simplicity PR reports, parent and change: the non-test Go lines
# outside bench/, the independently settable values — adserve's flags
# plus the exported fields of the option structs they reach, as counted
# (and pinned) by TestSettableValues —, and the root package's exported
# identifiers, as counted (and pinned) by TestExportedIdentifiers. Both
# tests name what they count, so a diff of two outputs names what moved.
size:
	@echo "non-test Go lines outside bench/: $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l)"
	@$(GO) test -count=1 -run '^TestSettableValues$$' -v ./cmd/adserve | sed -n 's/^ *main_test\.go:[0-9]*: //p'
	@$(GO) test -count=1 -run '^TestExportedIdentifiers$$' -v . | sed -n 's/^ *api_test\.go:[0-9]*: //p'

# Ten seconds of coverage-guided fuzzing each over the corpus text
# format round-trip property (Read ∘ Write = id on accepted inputs), the
# append-form JSON encoders of the HTTP reply (AppendJSON ≡ encoding/json,
# byte for byte, on arbitrary strings), the
# bounded-Levenshtein trie walk (walk ≡ naive DP over every stored
# word), the columnar signature prefilter (prefiltered scan ≡ naive
# per-record subset scan under random insert/remove churn), and the
# multiserver wire decoders (frame and response readers, ID, record and
# metadata bodies, and the one request decoder over every tag combination,
# after the pinned record-frame overflow cases) and the durable snapshot-file and
# WAL decoders that recovery runs over disk bytes (for both: no
# panic, typed rejections, allocation bounded by the input, Decode ∘
# Encode = id on accepted inputs), and the offline mapping file adserve
# -mapping reads (no panic, typed refusals, and what is accepted either
# builds through core.NewWithMapping or is refused there with an error),
# and the synonym file adserve -synonyms reads (no panic, typed refusals,
# ReadClasses ∘ WriteClasses = id on accepted inputs), and the compressed
# data-node decoder (no panic, ErrMalformedNode refusals, allocation bounded
# by the input and the phrases it decodes, Decode ∘ Encode = id on accepted
# inputs; minimization is capped: with the allocation check's two
# runtime.ReadMemStats per execution, minimizing one new input stalled the
# workers for most of the ten seconds), and the compressed snapshot
# hashindex.Read decodes (no panic, ErrMalformedSnapshot refusals,
# allocation bounded by the input, accepted snapshots answer queries and
# reload; the same minimization cap).
fuzzsmoke:
	$(GO) test -run='^$$' -fuzz=FuzzReadAds -fuzztime=10s ./internal/corpus
	$(GO) test -run='^$$' -fuzz=FuzzAppendJSON -fuzztime=10s ./internal/corpus
	$(GO) test -run='^$$' -fuzz=FuzzLevenshteinWalk -fuzztime=10s ./internal/rewrite
	$(GO) test -run='^$$' -fuzz=FuzzSignaturePrefilter -fuzztime=10s ./internal/core
	$(GO) test -run='TestRecordCountOverflowRejected' -fuzz=FuzzFrameDecoders -fuzztime=10s ./internal/multiserver
	$(GO) test -run='^$$' -fuzz=FuzzDurableDecoders -fuzztime=10s ./internal/durable
	$(GO) test -run='^$$' -fuzz=FuzzReadMapping -fuzztime=10s ./internal/optimize
	$(GO) test -run='^$$' -fuzz=FuzzReadClasses -fuzztime=10s ./internal/rewrite
	$(GO) test -run='^$$' -fuzz=FuzzDecodeNode -fuzztime=10s -fuzzminimizetime=100x ./internal/compress
	$(GO) test -run='^$$' -fuzz=FuzzLoadSnapshot -fuzztime=10s -fuzzminimizetime=100x .

# One iteration of every root benchmark and of internal/server's
# (BenchmarkSearchHit, the cached /search): keeps them compiling and
# running without timing anything.
benchsmoke:
	$(GO) test -bench=. -benchtime=1x -run=^$$ . ./internal/server ./internal/shard

# The end-to-end benchmark harness is a separate module linking this
# one's packages: vet it and run its own tests (~20 s) against the
# working tree. Its smoke test executes bench/out/adserve, so that is
# built from the working tree first.
benchmod:
	$(GO) build -o bench/out/adserve ./cmd/adserve
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The module on platforms other than amd64 Linux: 32-bit (the wire frame
# header, the record and arena bounds of internal/core and the snapshot
# positions of internal/hashindex are held below what an int holds
# there; a 386 test binary runs natively on amd64 Linux), and the
# non-Linux build of internal/core's region, which falls back to a heap
# slice.
crossbuild:
	GOARCH=386 $(GO) vet ./...
	GOARCH=386 $(GO) test -short ./internal/multiserver ./internal/core ./internal/hashindex ./internal/durable
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=windows $(GO) build ./...

clean:
	$(GO) clean ./...
