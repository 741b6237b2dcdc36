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
#                      through the reply cache)
#   recovery-smoke     kill -9 a churning child, recover, compare with the
#                      serial oracle; crash-at-every-write atomicity
#   simsmoke           pinned whole-stack simulation seeds vs the oracle,
#                      the cached-server target among them
#   migratesmoke       pinned elastic-resharding seeds, and the tail-latency
#                      bar across a live split/migrate/merge
#   overloadsmoke      budget/quarantine/shedding and the 4x flood bar
#   adaptsmoke         adapt control loop and the drift bar
#   fuzzsmoke          ten seconds on each decoder of foreign bytes (the
#                      record frame among them) and on the reply encoders
#                      held to encoding/json
#   benchsmoke         one iteration of every root `go test` benchmark
#   benchmod           vet + test of bench/, the end-to-end benchmark
#                      (its own module: `go test ./...` never compiles it)
#
# Performance is measured by bench/ alone (BENCHMARK.json names its
# workloads and metrics; `bash bench/run.sh` runs it). `make soak`,
# `make cover` and `make size` (the two numbers a simplicity PR reports)
# are not part of the gate.

GO ?= go

.PHONY: check vet build test race recovery-smoke simsmoke migratesmoke \
	overloadsmoke adaptsmoke soak cover size fuzzsmoke benchsmoke benchmod clean

check: vet build test race recovery-smoke simsmoke migratesmoke overloadsmoke adaptsmoke fuzzsmoke benchsmoke benchmod

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l . is not empty:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short . ./internal/core ./internal/server ./internal/multiserver \
		./internal/faultnet ./internal/shard ./internal/durable ./internal/diskfault \
		./internal/rewrite ./internal/sim ./internal/simclock ./internal/setcover \
		./internal/optimize ./cmd/adserve

# The crash-recovery stress skips under -short (it forks and SIGKILLs a
# child), so the smoke target runs it explicitly, under the race
# detector, together with the crash-at-every-write atomicity sweep.
recovery-smoke:
	$(GO) test -race -run 'TestCrashRecoveryStress|TestSnapshotAtomicUnderCrash' \
		-v . ./internal/diskfault

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
# answer to an ID or a records request is a typed error, pooled reply
# buffers never cross queries, query text led by a tag byte is text, and an
# elastic shard's deadline and cutoff flags reach the front end's reply.
overloadsmoke:
	$(GO) test -race -run 'TestSimOverloadBudget' -v ./internal/sim
	$(GO) test -race -run 'TestPanicContainment|TestDeadline|TestBackendFlagsOverWire|TestRecordsOverWire|TestRecordCountOverflowRejected' \
		./internal/multiserver
	$(GO) test -race -run 'TestCorruptShardReplyIsAnError|TestFanOutScratchIsolation|TestTagByteLedQueryText|TestTwoHopSkipsMetadataForNoMatch|TestElasticFlagsReachTheReply' \
		./internal/shard
	$(GO) test -race -run 'TestSearchBudget|TestSearchPanicContainment|TestLimiterShed|TestQuarantine|TestOverloadFlood|TestElasticFlagsReachTheReply' \
		-v ./internal/server

# Continuous-adaptation regression gate: the pinned adapt sim seeds
# (synchronous rounds interleaved with inserts, deletes, Optimize calls,
# and torn-crash restarts, oracle-checked) plus ddmin over adapt
# schedules, the root adapt control-loop tests (RCU apply, recalibration)
# and the table test over the one installer (TestRemapInstallers:
# Optimize, ApplyPlacement fresh and stale, ApplyMapping, each racing a
# fold), the one solver's tests (incremental step ≡ batch greedy, and
# TestOptimizeQualityPin: Optimize within 1.005x of the modeled cost the
# deleted monolithic greedy reached), and the closed-loop drift
# acceptance test through the HTTP server, under the race detector.
adaptsmoke:
	$(GO) test -race -run 'TestSimAdaptRegressionSeeds|TestSimShrinkWithAdaptOps' \
		-v ./internal/sim
	$(GO) test -race -run 'TestAdapt|TestExportDelta|TestApplyPlacement|TestRemapInstallers|TestStartStopAdapt|TestRecordQueryCost|TestIncremental|TestGaps|TestPlacement|TestOptimizeQualityPin' \
		. ./internal/setcover ./internal/optimize
	$(GO) test -race -run 'TestAdaptUnderDrift' -v ./internal/server

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
# outside bench/, and the independently settable values — adserve's flags
# plus the exported fields of the option structs behind them.
SIZE_STRUCTS = .:Options ./internal/server:Config ./internal/shard:Options \
	./internal/shard:ElasticOptions ./internal/multiserver:ConnOpts \
	.:AdaptOptions .:RewriteOptions .:DurableConfig ./internal/optimize:Options
size:
	@echo "non-test Go lines outside bench/: $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l)"
	@flags=$$($(GO) run ./cmd/adserve -h 2>&1 | grep -c '^  -'); fields=0; \
	for t in $(SIZE_STRUCTS); do \
		n=$$($(GO) doc $${t%%:*} $${t##*:} | awk '/^type .* struct \{/{s=1;next} s&&/^}/{exit} s&&/^\t[A-Z]/{n+=gsub(/,/,",")+1} END{print n}'); \
		echo "  $$t: $$n exported fields"; fields=$$((fields+n)); \
	done; \
	echo "settable values: $$flags adserve flags + $$fields option fields = $$((flags+fields))"

# Ten seconds of coverage-guided fuzzing each over the corpus text
# format round-trip property (Read ∘ Write = id on accepted inputs), the
# append-form JSON encoders of the HTTP reply (AppendJSON ≡ encoding/json,
# byte for byte, on arbitrary strings), the
# bounded-Levenshtein trie walk (walk ≡ naive DP over every stored
# word), the columnar signature prefilter (prefiltered scan ≡ naive
# per-record subset scan under random insert/remove churn), and the
# multiserver wire decoders (frame and response readers, ID, record and
# metadata bodies, and the one request decoder over every tag combination,
# after the pinned record-frame overflow cases) and the durable snapshot-stream and
# record-frame decoders that handoff and recovery feed (for both: no
# panic, typed rejections, allocation bounded by the input, Decode ∘
# Encode = id on accepted inputs), and the offline mapping file adserve
# -mapping reads (no panic, typed refusals, and what is accepted either
# builds through core.NewWithMapping or is refused there with an error),
# and the synonym file adserve -synonyms reads (no panic, typed refusals,
# ReadClasses ∘ WriteClasses = id on accepted inputs).
fuzzsmoke:
	$(GO) test -run='^$$' -fuzz=FuzzReadAds -fuzztime=10s ./internal/corpus
	$(GO) test -run='^$$' -fuzz=FuzzAppendJSON -fuzztime=10s ./internal/corpus
	$(GO) test -run='^$$' -fuzz=FuzzLevenshteinWalk -fuzztime=10s ./internal/rewrite
	$(GO) test -run='^$$' -fuzz=FuzzSignaturePrefilter -fuzztime=10s ./internal/core
	$(GO) test -run='TestRecordCountOverflowRejected' -fuzz=FuzzFrameDecoders -fuzztime=10s ./internal/multiserver
	$(GO) test -run='^$$' -fuzz=FuzzDurableDecoders -fuzztime=10s ./internal/durable
	$(GO) test -run='^$$' -fuzz=FuzzReadMapping -fuzztime=10s ./internal/optimize
	$(GO) test -run='^$$' -fuzz=FuzzReadClasses -fuzztime=10s ./internal/rewrite

# One iteration of every root benchmark: keeps them compiling and
# running without timing anything.
benchsmoke:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# The end-to-end benchmark harness is a separate module linking this
# one's packages: vet it and run its own tests (~20 s) against the
# working tree. Its smoke test executes bench/out/adserve, so that is
# built from the working tree first.
benchmod:
	$(GO) build -o bench/out/adserve ./cmd/adserve
	cd bench && $(GO) vet ./... && $(GO) test ./...

clean:
	$(GO) clean ./...
