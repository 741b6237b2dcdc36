package sim

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"adindex/internal/corpus"
)

var (
	simSeed = flag.Int64("sim.seed", -1,
		"run TestSim with exactly this seed (default: sim.seeds consecutive seeds from sim.seedbase)")
	simOps = flag.Int("sim.ops", 0,
		"ops per schedule (default 120 under -short, 250 otherwise)")
	simSeeds = flag.Int("sim.seeds", 3,
		"how many consecutive seeds TestSim runs when sim.seed is unset")
	simSeedBase = flag.Int64("sim.seedbase", 0,
		"first seed when sim.seed is unset (make soak rotates this daily)")
	simTrace = flag.String("sim.trace", "",
		"on failure, write the minimized repro trace to this file")
	simReplay = flag.String("sim.replay", "",
		"replay a trace file written by a previous failure instead of generating a schedule")
)

func defaultOps() int {
	if *simOps > 0 {
		return *simOps
	}
	if testing.Short() {
		return 120
	}
	return 250
}

// fullConfig enables every target: plain in-memory, durable with
// deterministic crash-restarts, compressed snapshot checks, and the
// sharded+replicated TCP deployment behind fault proxies.
func fullConfig(t *testing.T, seed int64) Config {
	t.Helper()
	return Config{
		Seed:    seed,
		Gen:     GenOptions{Ops: defaultOps()},
		Durable: true,
		Net:     true,
		Dir:     t.TempDir(),
	}
}

// TestSim is the main entry point: it generates a schedule per seed,
// runs it against the whole stack, and on divergence minimizes the
// schedule and writes a replayable trace plus a one-line repro command.
func TestSim(t *testing.T) {
	if *simReplay != "" {
		tr, err := ReadTraceFile(*simReplay)
		if err != nil {
			t.Fatalf("read trace: %v", err)
		}
		cfg := tr.Config
		cfg.Dir = t.TempDir()
		res, err := RunSchedule(cfg, tr.Schedule)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		t.Logf("replay %s: %s", *simReplay, res.Verdict())
		if res.Failure != nil {
			t.Fatal(res.Verdict())
		}
		return
	}

	var seeds []int64
	if *simSeed >= 0 {
		seeds = []int64{*simSeed}
	} else {
		for i := 0; i < *simSeeds; i++ {
			seeds = append(seeds, *simSeedBase+int64(i))
		}
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runSeed(t, fullConfig(t, seed))
		})
	}
}

func runSeed(t *testing.T, cfg Config) *Result {
	t.Helper()
	sched := Generate(cfg)
	res, err := RunSchedule(cfg, sched)
	if err != nil {
		t.Fatalf("harness setup: %v", err)
	}
	if res.Failure == nil {
		t.Logf("%s", res.Verdict())
		return res
	}
	t.Logf("divergence, minimizing: %s", res.Verdict())
	min, mf := Shrink(cfg, sched)
	path := *simTrace
	if path == "" {
		path = filepath.Join(os.TempDir(), fmt.Sprintf("sim-seed%d.trace.json", cfg.Seed))
	}
	if err := WriteTraceFile(path, &Trace{Config: cfg, Schedule: min}); err != nil {
		t.Errorf("write trace: %v", err)
	}
	t.Logf("minimized to %d ops (%v); replay with:\n  go test -run TestSim ./internal/sim -sim.replay=%s\nor regenerate with:\n  go test -run TestSim ./internal/sim -sim.seed=%d -sim.ops=%d",
		len(min.Ops), mf, path, cfg.Seed, len(sched.Ops))
	t.Fatal(res.Verdict())
	return res
}

// TestSimDeterministic: identical seeds produce byte-identical traces
// and identical verdicts across independent runs.
func TestSimDeterministic(t *testing.T) {
	cfg1 := fullConfig(t, 7)
	cfg1.Gen.Ops = 80
	cfg2 := cfg1
	cfg2.Dir = t.TempDir()

	s1, s2 := Generate(cfg1), Generate(cfg2)
	t1 := EncodeTrace(&Trace{Config: cfg1, Schedule: s1})
	t2 := EncodeTrace(&Trace{Config: cfg2, Schedule: s2})
	if !bytes.Equal(t1, t2) {
		t.Fatal("same seed generated different traces")
	}
	r1, err := RunSchedule(cfg1, s1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunSchedule(cfg2, s2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Verdict() != r2.Verdict() {
		t.Fatalf("verdicts differ:\n  %s\n  %s", r1.Verdict(), r2.Verdict())
	}
}

// TestSimTraceRoundTrip: decode(encode(trace)) re-encodes byte-
// identically, so a written repro file replays the exact same run.
func TestSimTraceRoundTrip(t *testing.T) {
	cfg := Config{Seed: 3, Gen: GenOptions{Ops: 50}, Durable: true, Net: true}
	sched := Generate(cfg)
	enc := EncodeTrace(&Trace{Config: cfg, Schedule: sched})
	dec, err := DecodeTrace(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if re := EncodeTrace(dec); !bytes.Equal(enc, re) {
		t.Fatal("trace does not round-trip byte-identically")
	}
}

// TestSimCrashTorn drives the deterministic crash machinery directly: a
// handcrafted schedule persists, tears a WAL frame mid-crash, restarts,
// and must recover exactly the acknowledged state (twice).
func TestSimCrashTorn(t *testing.T) {
	ads := []corpus.Ad{
		corpus.NewAd(1, "red running shoes", corpus.Meta{BidMicros: 3000}),
		corpus.NewAd(2, "red shoes", corpus.Meta{BidMicros: 2000}),
		corpus.NewAd(3, "blue suede shoes", corpus.Meta{BidMicros: 1000, Exclusions: []string{"red"}}),
		corpus.NewAd(4, "shoes", corpus.Meta{BidMicros: 4000}),
	}
	ops := []Op{
		{Kind: OpInsert, Ad: &ads[0]},
		{Kind: OpInsert, Ad: &ads[1]},
		{Kind: OpInsert, Ad: &ads[2]},
		{Kind: OpQuery, Query: "red suede running blue shoes"},
		{Kind: OpPersist},
		{Kind: OpInsert, Ad: &ads[3]},
		{Kind: OpCrash, Torn: true},
		{Kind: OpQuery, Query: "red suede running blue shoes"},
		{Kind: OpDelete, ID: 2, Phrase: "red shoes"},
		{Kind: OpCrash},
		{Kind: OpQuery, Query: "shoes red"},
		{Kind: OpCompressed, Queries: []string{"red running shoes", "shoes"}},
	}
	cfg := Config{Seed: 1, Durable: true, Dir: t.TempDir()}
	res, err := RunSchedule(cfg, Schedule{Seed: 1, Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure != nil {
		t.Fatal(res.Verdict())
	}
}

// regressionSeeds are schedules that exercised trouble spots while the
// harness was being built (torn-crash recovery immediately after WAL
// rotation, delete-heavy fold churn, kill/heal interleaved with batch
// queries). They are cheap, pinned fixtures: any future divergence on
// them is a regression with a ready-made repro seed.
var regressionSeeds = []int64{2, 5, 11, 23}

func TestSimRegressionSeeds(t *testing.T) {
	for _, seed := range regressionSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := fullConfig(t, seed)
			cfg.Gen.Ops = 100
			runSeed(t, cfg)
		})
	}
}

// overloadSeeds pin the overload scenario: every query additionally
// runs under a tight cost budget on the full stack, and its (often
// truncated) answer is held to the truncation contract — an ID-ordered
// verified subset of the oracle's full answer, exact when not
// truncated. This is the sim half of the PR 9 overload armor; `make
// overloadsmoke` runs it under the race detector.
var overloadSeeds = []int64{4, 9, 17}

func TestSimOverloadBudget(t *testing.T) {
	truncated := 0
	for _, seed := range overloadSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := fullConfig(t, seed)
			cfg.Gen.Ops = 100
			cfg.Budget = 8 // tight: most real matches cost more than this
			if res := runSeed(t, cfg); res != nil {
				truncated += res.Truncated
			}
		})
	}
	if truncated == 0 {
		t.Fatal("no query ever truncated: the overload scenario exercised nothing")
	}
}

// TestSimRewriteUnderBudget composes the two scenarios: rewrite queries
// also run with every variant probe charged to a tight cost budget, and
// the (often truncated) answer is held to the truncation contract
// against the oracle's full rewrite answer.
func TestSimRewriteUnderBudget(t *testing.T) {
	truncated := 0
	for _, seed := range rewriteRegressionSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := fullConfig(t, seed)
			cfg.Gen.Ops = 100
			cfg.Rewrite = true
			cfg.Budget = 8
			if res := runSeed(t, cfg); res != nil {
				truncated += res.Truncated
			}
		})
	}
	if truncated == 0 {
		t.Fatal("no query ever truncated: the composed scenario exercised nothing")
	}
}

// adaptSeeds pin the continuous-adaptation scenario: synchronous
// adaptation rounds (pull delta, re-solve the most misplaced word sets,
// RCU apply) interleaved with inserts, deletes, batch Optimize calls,
// and torn-crash restarts of the durable twin. Every query after a
// round is oracle-checked, so a round that loses or corrupts results
// diverges; `make adaptsmoke` runs these under the race detector.
var adaptSeeds = []int64{8, 21}

func TestSimAdaptRegressionSeeds(t *testing.T) {
	for _, seed := range adaptSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := fullConfig(t, seed)
			cfg.Gen.Ops = 100
			cfg.Adapt = true
			sched := Generate(cfg)
			rounds := 0
			for i := range sched.Ops {
				if sched.Ops[i].Kind == OpAdapt {
					rounds++
				}
			}
			if rounds == 0 {
				t.Fatalf("seed %d generated no adapt ops: the scenario exercises nothing", seed)
			}
			res, err := RunSchedule(cfg, sched)
			if err != nil {
				t.Fatalf("harness setup: %v", err)
			}
			if res.Failure != nil {
				t.Fatal(res.Verdict())
			}
			t.Logf("%s (%d adapt rounds)", res.Verdict(), rounds)
		})
	}
}

// rewriteRegressionSeeds pin rewrite-enabled schedules: ~40% of queries
// are typo- or synonym-perturbed and checked through a rewritten Match
// plus the discounted auction (on the plain and crash-restarted durable
// targets) against the oracle's independent rewrite model.
var rewriteRegressionSeeds = []int64{3, 7, 13}

func TestSimRewriteRegressionSeeds(t *testing.T) {
	for _, seed := range rewriteRegressionSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := fullConfig(t, seed)
			cfg.Gen.Ops = 100
			cfg.Rewrite = true
			runSeed(t, cfg)
		})
	}
}

// cachedSeeds pin the cached-server scenario: the schedule of the plain
// index driven through server.New(ix, cfg).Handler() — /insert, /delete,
// /optimize, /search twice per query, /search/batch — on a durable index
// that is crash-restarted (a new server each time, as a restart is), with
// adaptation rounds in every other seed. Every reply, hit or miss, is held
// to the oracle; after each write every query asked so far is asked again,
// so an entry a write should have dropped diverges at that write, and an
// op that changes no answer (not-found delete, Optimize, ApplyMapping,
// Persist, an adaptation round) must leave every entry in place. `make
// simsmoke` runs these under the race detector.
var cachedSeeds = []int64{6, 14, 19, 31}

func TestSimCachedServer(t *testing.T) {
	survived := 0
	for i, seed := range cachedSeeds {
		seed, adapt := seed, i%2 == 1
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := Config{
				Seed:    seed,
				Gen:     GenOptions{Ops: defaultOps()},
				Durable: true,
				Cached:  true,
				Adapt:   adapt,
				Dir:     t.TempDir(),
			}
			if res := runSeed(t, cfg); res != nil {
				survived += res.Survived
			}
		})
	}
	if survived == 0 {
		t.Fatal("no cached reply ever outlived a write: the scenario exercised nothing")
	}
	t.Logf("%d cached replies served after a write that did not touch them", survived)
}
