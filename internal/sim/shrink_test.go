package sim

import (
	"bytes"
	"testing"

	"adindex/internal/corpus"
)

// injectOffByOne is the deliberate bug the acceptance criteria call for:
// the plain target silently drops the last result of any query with at
// least two matches. The oracle must catch it and the shrinker must
// minimize the exposing schedule to a handful of ops.
func injectOffByOne(ads []corpus.Ad) []corpus.Ad {
	if len(ads) >= 2 {
		return ads[:len(ads)-1]
	}
	return ads
}

func buggyConfig(t *testing.T, seed int64) Config {
	t.Helper()
	cfg := Config{
		Seed: seed,
		Gen:  GenOptions{Ops: 150},
		Dir:  t.TempDir(),
	}
	cfg.mutateResults = injectOffByOne
	return cfg
}

func TestSimOracleCatchesInjectedOffByOne(t *testing.T) {
	cfg := buggyConfig(t, 11)
	sched := Generate(cfg)
	res, err := RunSchedule(cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure == nil {
		t.Fatal("oracle did not catch the injected off-by-one")
	}
	if res.Failure.Target != "plain" {
		t.Fatalf("failure target = %q, want plain (%s)", res.Failure.Target, res.Verdict())
	}
}

func TestSimShrinksInjectedBugToSmallTrace(t *testing.T) {
	cfg := buggyConfig(t, 11)
	sched := Generate(cfg)

	min, f := Shrink(cfg, sched)
	if f == nil {
		t.Fatal("Shrink lost the failure")
	}
	if f.Target != "plain" {
		t.Fatalf("minimized failure target = %q, want plain", f.Target)
	}
	if len(min.Ops) > 20 {
		t.Fatalf("minimized schedule has %d ops, want <= 20", len(min.Ops))
	}
	t.Logf("minimized %d ops -> %d ops: %v", len(sched.Ops), len(min.Ops), f)

	// The minimized schedule must reproduce on a fresh run.
	cfg2 := buggyConfig(t, 11)
	res, err := RunSchedule(cfg2, min)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure == nil || res.Failure.Target != "plain" {
		t.Fatalf("minimized schedule did not reproduce: %s", res.Verdict())
	}

	// And shrinking again from the same inputs must yield the identical
	// minimized trace — determinism of the whole find-shrink pipeline.
	min2, _ := Shrink(buggyConfig(t, 11), sched)
	b1 := EncodeTrace(&Trace{Schedule: min})
	b2 := EncodeTrace(&Trace{Schedule: min2})
	if !bytes.Equal(b1, b2) {
		t.Fatal("repeated shrink produced a different minimized trace")
	}
}
