// Overload-armor acceptance test: a seeded adversarial flood at 4x the
// front-end's capacity, driven through the full distributed stack
// (budgeted shard backends behind faultnet proxies, deadline
// propagation on the wire, CoDel shedding and poison-query quarantine
// at admission). The process must never crash or deadlock, accepted
// queries must stay fast, shed requests must get a typed 503 with
// Retry-After, and every truncated answer must be a flagged, ID-ordered
// subset of the full oracle answer.
package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adindex"
	"adindex/internal/corpus"
	"adindex/internal/faultnet"
	"adindex/internal/multiserver"
	"adindex/internal/shard"
	"adindex/internal/workload"
)

// floodBackend is the budgeted shard backend (the same wiring cmd/adserve
// uses): -query-budget and the wire deadline bound the match, flags riding
// the record response.
type floodBackend struct {
	ix     *adindex.Index
	budget int64
}

func (b floodBackend) AppendMatch(dst []byte, req multiserver.Request) ([]byte, error) {
	res := b.ix.Match(nil, adindex.Query{Text: req.Query, Budget: adindex.QueryBudget{MaxCost: b.budget, Deadline: req.Deadline}})
	var flags byte
	if res.Truncated {
		flags |= multiserver.IDFlagTruncated
	}
	return multiserver.AppendAdRecords(dst, res.Ads, flags), nil
}

// floodOutcome is one request's observed result.
type floodOutcome struct {
	status     int
	dur        time.Duration
	truncated  bool
	degraded   bool
	ids        []uint64
	retryAfter string
	err        error
}

func floodGet(client *http.Client, base, q string) floodOutcome {
	start := time.Now()
	resp, err := client.Get(base + "/search?q=" + url.QueryEscape(q))
	if err != nil {
		return floodOutcome{err: err}
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	o := floodOutcome{
		status:     resp.StatusCode,
		dur:        time.Since(start),
		retryAfter: resp.Header.Get("Retry-After"),
	}
	if rerr != nil {
		o.err = rerr
		return o
	}
	if resp.StatusCode == http.StatusOK {
		var r struct {
			IDs       []uint64 `json:"ids"`
			Truncated bool     `json:"truncated"`
			Degraded  bool     `json:"degraded"`
		}
		if jerr := json.Unmarshal(body, &r); jerr != nil {
			o.err = jerr
			return o
		}
		o.ids, o.truncated, o.degraded = r.IDs, r.Truncated, r.Degraded
	}
	return o
}

// drivePhase replays the stream with the given closed-loop concurrency,
// each worker pulling the next query from a shared cursor.
func drivePhase(client *http.Client, base string, stream []*workload.Query, workers int) []floodOutcome {
	out := make([]floodOutcome, len(stream))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(stream) {
					return
				}
				out[i] = floodGet(client, base, strings.Join(stream[i].Words, " "))
			}
		}()
	}
	wg.Wait()
	return out
}

func durP99(durs []time.Duration) time.Duration {
	if len(durs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), durs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := (len(s)*99+99)/100 - 1
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// isOrderedSubset reports whether got is an ID-ordered sub-multiset of
// want (want must be sorted ascending).
func isOrderedSubset(got, want []uint64) bool {
	j := 0
	for i, id := range got {
		if i > 0 && id < got[i-1] {
			return false
		}
		for j < len(want) && want[j] < id {
			j++
		}
		if j >= len(want) || want[j] != id {
			return false
		}
		j++
	}
	return true
}

func equalIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestOverloadFlood(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second flood acceptance test; run via make overloadsmoke")
	}

	c := corpus.Generate(corpus.GenOptions{NumAds: 2000, Seed: 1901})
	full := adindex.Build(c.Ads, adindex.Options{})

	// Parity split: two disjoint shard indexes whose union is exactly the
	// corpus, so the combined full index is the oracle for merged answers.
	var even, odd []adindex.Ad
	for i := range c.Ads {
		if i%2 == 0 {
			even = append(even, c.Ads[i])
		} else {
			odd = append(odd, c.Ads[i])
		}
	}
	shardIx := []*adindex.Index{
		adindex.Build(even, adindex.Options{}),
		adindex.Build(odd, adindex.Options{}),
	}

	wl := workload.Generate(c, workload.GenOptions{NumQueries: 120, Seed: 1902})
	adv := workload.GenerateAdversarial(c, workload.AdvOptions{NumQueries: 24, Seed: 1903})

	// Calibrate the backend budget the way an operator would: measure the
	// cost of the legitimate workload and set the cap at twice its
	// per-shard maximum, so steady traffic never truncates while the
	// adversarial long-query enumeration blows through it.
	var maxSteady int64
	for i := range wl.Queries {
		q := strings.Join(wl.Queries[i].Words, " ")
		for _, ix := range shardIx {
			if spent := ix.Match(nil, adindex.Query{Text: q}).CostSpent; spent > maxSteady {
				maxSteady = spent
			}
		}
	}
	budget := 2 * maxSteady
	if budget < 1 {
		budget = 1
	}
	var minAdv int64 = -1
	for i := range adv.Queries {
		q := strings.Join(adv.Queries[i].Words, " ")
		for _, ix := range shardIx {
			if spent := ix.Match(nil, adindex.Query{Text: q}).CostSpent; minAdv < 0 || spent < minAdv {
				minAdv = spent
			}
		}
	}
	t.Logf("budget=%d (max steady shard cost %d, min adversarial shard cost %d)",
		budget, maxSteady, minAdv)

	// Budgeted shard servers, each behind a faultnet proxy injecting a
	// seeded latency schedule (the flood travels the same lossy path the
	// sim uses; no resets/drops so latency assertions stay stable).
	addrs := make([][]string, len(shardIx))
	for i, ix := range shardIx {
		srv, err := multiserver.NewIndexServer("127.0.0.1:0", multiserver.ServeOpts{},
			floodBackend{ix: ix, budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		proxy, err := faultnet.New(srv.Addr(), &faultnet.Random{
			Seed:   int64(1910 + i),
			Delay:  100 * time.Microsecond,
			Jitter: 200 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { proxy.Close() })
		addrs[i] = []string{proxy.Addr()}
	}
	nc, err := shard.DialReplicaShards(addrs, shard.Options{
		Conn: multiserver.ConnOpts{
			Timeout:          time.Second,
			MaxRetries:       1,
			RetryBase:        2 * time.Millisecond,
			RetryMax:         10 * time.Millisecond,
			BreakerThreshold: 1000, // latency-only faults: the breaker must never open
			BreakerCooldown:  100 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nc.Close)

	// Small front end so a 4x flood is cheap to generate: 4 execution
	// slots, their queue of 16 drained by CoDel shedding, quarantine armed.
	const maxInflight = 4
	s := NewRemote(nc, Config{
		MaxInflight:     maxInflight,
		RequestTimeout:  2 * time.Second,
		ShedTargetDelay: 2 * time.Millisecond,
		QuarantineTTL:   time.Minute,
	})
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { drain(s) })
	base := "http://" + s.Addr()

	// Streams: a steady phase, then a flood interleaving flash crowds of
	// adversarial long queries with steady background traffic.
	steady := wl.Stream(300, 1905)
	crowd := adv.FlashCrowdStream(800, 16, 1906)
	bg := wl.Stream(800, 1907)
	mixed := make([]*workload.Query, 0, len(crowd)+len(bg))
	for i := 0; i < len(crowd) || i < len(bg); i++ {
		if i < len(crowd) {
			mixed = append(mixed, crowd[i])
		}
		if i < len(bg) {
			mixed = append(mixed, bg[i])
		}
	}

	// Precompute the oracle answer for every query either phase can send.
	oracle := map[string][]uint64{}
	for _, qs := range [][]*workload.Query{steady, mixed} {
		for _, q := range qs {
			text := strings.Join(q.Words, " ")
			if _, ok := oracle[text]; ok {
				continue
			}
			ads := full.BroadMatch(text)
			ids := make([]uint64, len(ads))
			for i := range ads {
				ids[i] = ads[i].ID
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			oracle[text] = ids
		}
	}

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	t.Cleanup(client.CloseIdleConnections)

	// Steady state: light concurrency, every query must be served exactly.
	var steadyDurs []time.Duration
	for i, o := range drivePhase(client, base, steady, 2) {
		text := strings.Join(steady[i].Words, " ")
		switch {
		case o.err != nil:
			t.Fatalf("steady query %q: %v", text, o.err)
		case o.status != http.StatusOK:
			t.Fatalf("steady query %q: status %d", text, o.status)
		case o.truncated:
			t.Fatalf("steady query %q truncated: budget %d is miscalibrated", text, budget)
		case o.degraded:
			t.Fatalf("steady query %q degraded with healthy backends", text)
		case !equalIDs(o.ids, oracle[text]):
			t.Fatalf("steady query %q: ids %v, oracle %v", text, o.ids, oracle[text])
		}
		steadyDurs = append(steadyDurs, o.dur)
	}
	steadyP99 := durP99(steadyDurs)

	// The flood: 4x the front end's execution slots, half flash-crowd
	// adversarial traffic.
	outcomes := drivePhase(client, base, mixed, 4*maxInflight)

	var accepted, shed, timeouts, truncated int
	var acceptedDurs []time.Duration
	for i, o := range outcomes {
		text := strings.Join(mixed[i].Words, " ")
		if o.err != nil {
			t.Fatalf("flood query %q: transport error (server dead?): %v", text, o.err)
		}
		switch o.status {
		case http.StatusOK:
			accepted++
			acceptedDurs = append(acceptedDurs, o.dur)
			if o.truncated {
				truncated++
				if !isOrderedSubset(o.ids, oracle[text]) {
					t.Fatalf("flood query %q: truncated ids %v not an ordered subset of oracle %v",
						text, o.ids, oracle[text])
				}
			} else if !equalIDs(o.ids, oracle[text]) {
				t.Fatalf("flood query %q: untruncated ids %v != oracle %v", text, o.ids, oracle[text])
			}
		case http.StatusServiceUnavailable:
			shed++
			if o.retryAfter == "" {
				t.Fatalf("flood query %q: 503 without Retry-After", text)
			}
		case http.StatusGatewayTimeout:
			timeouts++ // deadline expired mid-fan-out: typed, allowed
		default:
			t.Fatalf("flood query %q: unexpected status %d", text, o.status)
		}
	}
	acceptedP99 := durP99(acceptedDurs)
	t.Logf("flood: %d requests, %d accepted (%d truncated), %d shed, %d deadline-expired; steady p99 %v, accepted p99 %v",
		len(outcomes), accepted, truncated, shed, timeouts, steadyP99, acceptedP99)

	if accepted < 50 {
		t.Errorf("only %d/%d flood requests accepted; shedding is rejecting nearly everything", accepted, len(outcomes))
	}
	if shed == 0 {
		t.Error("a 4x flood shed nothing: admission control is not engaging")
	}
	if truncated == 0 {
		t.Errorf("no flood query truncated (budget %d, min adversarial cost %d): the budget exercised nothing",
			budget, minAdv)
	}

	// Accepted-latency acceptance: p99 under flood stays within 2x steady
	// state, with an absolute floor. The floor is honest calibration, not
	// slack hiding a regression: an accepted request may legitimately sit
	// behind the full CoDel queue (4 entries per slot, each a budget-bounded
	// query that the race detector and a 1-CPU runner inflate to ~10ms),
	// which measures ~100ms here — far above 2x a lightly-loaded steady
	// p99 of a few ms. What the bound must reject is admission collapse:
	// without shedding, every accepted request waits toward the 2s request
	// timeout, an order of magnitude past the floor.
	limit := 2 * steadyP99
	if floor := 250 * time.Millisecond; limit < floor {
		limit = floor
	}
	if acceptedP99 > limit {
		t.Errorf("accepted p99 %v exceeds %v (2x steady p99 %v with 250ms floor)",
			acceptedP99, limit, steadyP99)
	}

	// Whether the flood itself promoted anyone depends on how arrivals
	// interleaved with the shedder: an offender shed at admission earns no
	// strike. So the promotion check does not rest on that. The flood has
	// drained (drivePhase returned), a request sent alone always finds a
	// free slot, which shedding never refuses, and DefaultQuarantineStrikes
	// blowouts by one offender inside the TTL must promote it — unless the
	// flood already did, in which case it is refused at admission.
	offender := ""
	for i, o := range outcomes {
		if o.status == http.StatusOK && o.truncated {
			offender = strings.Join(mixed[i].Words, " ")
			break
		}
	}
	if offender == "" {
		t.Fatal("no truncated flood query to replay as the repeat offender")
	}
	for i := 0; i < DefaultQuarantineStrikes; i++ {
		o := floodGet(client, base, offender)
		switch {
		case o.err != nil:
			t.Fatalf("offender %q, strike %d: %v", offender, i+1, o.err)
		case o.status == http.StatusOK && o.truncated:
		case o.status == http.StatusServiceUnavailable: // already quarantined
		default:
			t.Fatalf("offender %q, strike %d: status %d truncated=%v, want a truncated 200 or a quarantine 503",
				offender, i+1, o.status, o.truncated)
		}
	}

	// The armor's counters saw what the client saw: contained zero panics,
	// counted truncations, and promoted repeat offenders into quarantine.
	var snap MetricsSnapshot
	getJSON(t, base+"/metrics", &snap)
	if snap.Overload.Panics != 0 {
		t.Errorf("panics = %d during flood", snap.Overload.Panics)
	}
	if snap.Overload.BudgetTruncated == 0 {
		t.Error("budget_truncated counter is zero after truncated responses")
	}
	if snap.Overload.QuarantinePromotion == 0 {
		t.Error("no fingerprint was quarantined despite repeated budget blowouts")
	}

	// Liveness after the storm: health stays green and steady traffic is
	// served exactly again once the queue drains.
	if got := status(t, "GET", base+"/healthz"); got != http.StatusOK {
		t.Fatalf("healthz after flood = %d", got)
	}
	probe := strings.Join(steady[0].Words, " ")
	deadline := time.Now().Add(5 * time.Second)
	for {
		o := floodGet(client, base, probe)
		if o.err == nil && o.status == http.StatusOK && !o.truncated && equalIDs(o.ids, oracle[probe]) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server did not recover after flood: last status %d err %v", o.status, o.err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
