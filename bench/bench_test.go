package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"adindex/internal/corpus"
)

func TestTopPercentile(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99},
		{9999, 0.99}, {10000, 0.999}, {100000, 0.9999},
	} {
		if got := topPercentile(tc.n); got != tc.want {
			t.Errorf("topPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	var ds []time.Duration
	for i := 1; i <= 1000; i++ {
		ds = append(ds, time.Duration(i))
	}
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}} {
		if got := percentile(ds, tc.p); got != tc.want {
			t.Errorf("percentile(1..1000, %v) = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := percentile[time.Duration](nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
}

// A server that stalls once must inflate the latency of the requests
// that were due during the stall: they are timed from when they should
// have been sent, not from when the blocked client got round to them.
func TestOpenLoopTimesFromIntendedSend(t *testing.T) {
	const stall = 200 * time.Millisecond
	first := true
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first { // one connection, so requests arrive one at a time
			first = false
			time.Sleep(stall)
		}
		w.Write([]byte(`{"query":"x"}`))
	}))
	defer srv.Close()

	req := searchRequest("x")
	next := int32(-1)
	res, err := openLoop(context.Background(), "open", strings.TrimPrefix(srv.URL, "http://"), 1, 100, 400*time.Millisecond, false,
		func() (int32, []byte) { next++; return next, req }, okReply)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 40 || res.Failed != 0 {
		t.Fatalf("attempts %d failed %d, want 40 and 0", res.Attempts, res.Failed)
	}
	sort.Slice(res.Samples, func(i, j int) bool { return res.Samples[i].Req < res.Samples[j].Req })
	// Request 5 was due at 50 ms, 150 ms before the stall ended.
	s := res.Samples[5]
	if s.Latency < 100*time.Millisecond {
		t.Errorf("request due mid-stall has latency %v: the stall was hidden", s.Latency)
	}
	if s.Service > 50*time.Millisecond {
		t.Errorf("request due mid-stall has service time %v, want the unstalled time", s.Service)
	}
	if s.Late > 20*time.Millisecond {
		t.Errorf("generator lateness %v: the server's stall was charged to the generator", s.Late)
	}
	// Well after the backlog drained, latency is back to the service time.
	if last := res.Samples[39]; last.Latency > 50*time.Millisecond {
		t.Errorf("request after the backlog drained still has latency %v", last.Latency)
	}
}

// Every fifth request of a client is a probe of /healthz on the same
// connection, in the closed loop and on the open loop's schedule alike,
// and split keeps the two kinds apart.
func TestProbesRideAlong(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte("ok\n"))
			return
		}
		w.Write([]byte(`{"query":"x"}`))
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")
	req := searchRequest("x")
	take := func() (int32, []byte) { return 0, req }

	closed, err := closedLoop(context.Background(), "closed", addr, take, 100*time.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	open, err := openLoop(context.Background(), "open", addr, clients, 500, 200*time.Millisecond, true, take, okReply)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*phaseResult{closed, open} {
		reqs, probes := p.split()
		if p.Failed != 0 || len(reqs)+len(probes) != p.Attempts {
			t.Fatalf("%s: %d attempts, %d failed, split into %d + %d", p.Name, p.Attempts, p.Failed, len(reqs), len(probes))
		}
		// One in five, give or take the clients' unfinished rounds.
		if d := len(reqs) - (probeEvery-1)*len(probes); d < 0 || d > (probeEvery-1)*clients {
			t.Errorf("%s: %d requests beside %d probes, want %d to 1", p.Name, len(reqs), len(probes), probeEvery-1)
		}
		for _, s := range probes {
			if s.RespSize != int32(len("ok\n")) {
				t.Fatalf("%s: a probe got %d bytes back: not /healthz", p.Name, s.RespSize)
			}
		}
	}
}

// A request's relative time is its time over the median probe of the same
// tenth of a second. When the box slows everything down by half, the
// relative times stay where they are; when only the requests slow down,
// they follow.
func TestRelativeCancelsTheHost(t *testing.T) {
	service := func(s *sample) time.Duration { return s.Service }
	phase := func(search, probe time.Duration, slowAfter time.Duration, factor time.Duration) (reqs, probes []*sample) {
		for at := time.Duration(0); at < 2*time.Second; at += time.Millisecond {
			f := time.Duration(1)
			if at >= slowAfter {
				f = factor
			}
			for k := 0; k < probeEvery-1; k++ {
				reqs = append(reqs, &sample{Start: at, Service: f * search})
			}
			probes = append(probes, &sample{Start: at, Probe: true, Service: f * probe})
		}
		return reqs, probes
	}
	const search, probe = 300 * time.Microsecond, 100 * time.Microsecond
	quietReqs, quietProbes := phase(search, probe, time.Hour, 1)
	slowReqs, slowProbes := phase(search, probe, 800*time.Millisecond, 2) // host at half speed after 0.8 s
	quiet, slowed := relative(quietReqs, quietProbes, service), relative(slowReqs, slowProbes, service)
	for _, p := range []float64{0.5, 0.9} {
		if q, h := percentile(quiet, p), percentile(slowed, p); q != 3 || h != 3 {
			t.Errorf("p%.0f relative time: quiet %v, slowed host %v, want 3 and 3", p*100, q, h)
		}
	}
	if raw := percentile(sortedDurations(slowReqs, service), 0.9); raw != 2*search {
		t.Errorf("raw p90 under a slowed host = %v, want %v: the test slows nothing", raw, 2*search)
	}
	if _, rel := throughput(slowReqs, slowProbes); rel < 0.333 || rel > 0.334 {
		t.Errorf("relative throughput under a slowed host = %v, want 1/3", rel)
	}
	heavyReqs, heavyProbes := phase(search*3/2, probe, time.Hour, 1) // the program got slower, not the host
	if got := percentile(relative(heavyReqs, heavyProbes, service), 0.5); got != 4.5 {
		t.Errorf("searches half as slow again: relative p50 = %v, want 4.5", got)
	}
	// A stall that leaves a window without probes falls back on the phase.
	if got := relative([]*sample{{Start: 5 * time.Second, Service: search}}, quietProbes, service); len(got) != 1 || got[0] != 3 {
		t.Errorf("request in a window without probes: relative = %v, want [3]", got)
	}
}

// Folds are counted from what the writer saw: acknowledged writes with a
// rebuild's service time, not writes that merely queued behind one, and
// not the WAL rotations and collector stalls that are slow for a write
// but short for a rebuild.
func TestCountFolds(t *testing.T) {
	threshold := foldThreshold(1600 * time.Millisecond)
	if threshold != 800*time.Millisecond {
		t.Fatalf("foldThreshold(1.6s) = %v, want 800ms", threshold)
	}
	writes := []sample{
		{Service: time.Millisecond, Latency: time.Millisecond},
		{Service: 1300 * time.Millisecond, Latency: 1300 * time.Millisecond}, // a fold
		{Service: time.Millisecond, Latency: 1200 * time.Millisecond},        // queued behind it
		{Service: 80 * time.Millisecond, Latency: 80 * time.Millisecond},     // a collector stall
		{Service: 400 * time.Millisecond, Latency: 400 * time.Millisecond},   // a WAL rotation
		{Service: 1400 * time.Millisecond, Failed: true},
		{Service: 900 * time.Millisecond, Latency: 900 * time.Millisecond}, // another fold
	}
	if got := countFolds(writes, threshold); got != 2 {
		t.Errorf("countFolds = %d, want 2", got)
	}
}

func TestSelfTimesTelescope(t *testing.T) {
	tr := newTrace()
	at := func(d int) time.Time { return tr.began.Add(time.Duration(d)) }
	// Request 0: root(100) ⊃ a(60) ⊃ {b(25), c(10)}.
	tr.add("root", "", 0, at(0), at(100))
	tr.add("a", "root", 0, at(1000), at(1060)) // another pass, another wall time
	tr.add("b", "a", 0, at(2000), at(2025))
	tr.add("c", "a", 0, at(3000), at(3010))
	// Request 1: root(50); a was not called (cache hit), so a and b are cut off.
	tr.add("root", "", 1, at(200), at(250))
	tr.add("a", "root", 1, at(1100), at(1130))
	tr.add("b", "a", 1, at(2100), at(2120))
	tr.unlink("a", func(req int32) bool { return req == 1 })
	// Request 2 has no root span and is ignored.
	tr.add("a", "root", 2, at(1200), at(1230))

	self, root, n := tr.selfTimes("root")
	if n != 2 || root != 75 {
		t.Fatalf("n=%d root=%d, want 2 requests with mean root 75", n, root)
	}
	want := map[string]time.Duration{"root": (40 + 50) / 2, "a": 25 / 2, "b": 25 / 2, "c": 10 / 2}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self = %v, want %v", self, want)
	}
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if sum < root-2 || sum > root { // integer means: each may round down
		t.Errorf("self times sum to %d, root is %d", sum, root)
	}
}

func TestInputsDeterministicInSeed(t *testing.T) {
	sp, _ := findSpec("http-churn")
	sp.Ads = 3000
	render := func(in *inputs) []byte {
		var buf bytes.Buffer
		if err := in.corpus.Write(&buf); err != nil {
			t.Fatal(err)
		}
		for _, i := range in.order[:5000] {
			buf.WriteString(in.queries[i])
			buf.WriteByte('\n')
		}
		for _, m := range in.muts {
			buf.Write(mutationRequest(m))
		}
		return buf.Bytes()
	}
	a, b, c := render(generate(sp, 7)), render(generate(sp, 7)), render(generate(sp, 8))
	if !bytes.Equal(a, b) {
		t.Error("same seed produced different corpus, stream or write sequence")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds produced identical inputs")
	}
	for _, q := range generate(sp, 7).queries {
		if n := len(strings.Fields(q)); n > maxQueryWords {
			t.Fatalf("query %q has %d words: past the index's cutoff, answers may lose matches", q, n)
		}
	}
}

func TestOracle(t *testing.T) {
	ads := []corpus.Ad{
		corpus.NewAd(1, "used books", corpus.Meta{BidMicros: 10}),
		corpus.NewAd(2, "books", corpus.Meta{BidMicros: 20}),
		corpus.NewAd(3, "cheap flights", corpus.Meta{BidMicros: 30}),
	}
	o := newOracle(ads)
	ids := func(q string) []uint64 {
		var out []uint64
		for _, ad := range o.match(q) {
			out = append(out, ad.ID)
		}
		return out
	}
	if got := ids("cheap used books"); !slices.Equal(got, []uint64{1, 2}) {
		t.Errorf("match = %v, want [1 2]", got)
	}
	o.insert(corpus.NewAd(4, "cheap", corpus.Meta{}))
	o.remove(2)
	if got := ids("cheap used books"); !slices.Equal(got, []uint64{1, 4}) {
		t.Errorf("after insert 4 / delete 2: match = %v, want [1 4]", got)
	}
	if o.live() != 3 {
		t.Errorf("live = %d, want 3", o.live())
	}
	reply := func(ads ...corpus.Ad) []byte {
		b, _ := json.Marshal(map[string]any{"matched": len(ads), "ads": ads})
		return b
	}
	if diff := o.check("used books", reply(ads[0]), false); diff != "" {
		t.Errorf("correct reply rejected: %s", diff)
	}
	if diff := o.check("used books", reply(), false); diff == "" {
		t.Error("reply missing an ad was accepted")
	}
	wrong := ads[0]
	wrong.Meta.BidMicros = 11
	if diff := o.check("used books", reply(wrong), false); diff == "" {
		t.Error("reply with wrong metadata was accepted")
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "qps", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name string
		def  metricDef
		base []float64
		cand []float64
		want verdict
	}{
		{"within bound", lower, steady, []float64{108}, verdictOK},
		{"improved", lower, steady, []float64{50}, verdictOK},
		{"latency up 20%", lower, steady, []float64{120}, verdictRegressed},
		{"throughput down 20%", higher, steady, []float64{80}, verdictRegressed},
		{"throughput up 20%", higher, steady, []float64{120}, verdictOK},
		{"base too noisy to tell", lower, []float64{80, 100, 120, 90, 115}, []float64{130}, verdictUnresolved},
		{"two noisy base runs", lower, []float64{80, 120}, []float64{130}, verdictUnresolved},
		{"per-layer has no bound", metricDef{Name: "core.match_us", Better: "lower"}, steady, []float64{500}, verdictInfo},
		{"no failures", metricDef{Name: "error_rate", MustBeZero: true}, []float64{0, 0}, []float64{0, 0, 0}, verdictOK},
		{"one run with failures", metricDef{Name: "error_rate", MustBeZero: true}, []float64{0, 0}, []float64{0, 1e-5, 0}, verdictRegressed},
	} {
		if got := judge(tc.def, tc.base, tc.cand).Verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	// The driver's quartiles: statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if lo, hi := quartile(v, 0.25), quartile(v, 0.75); lo != 2.75 || hi != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", lo, hi)
	}
}

func TestCompareFilesExitCode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, edit func(*workloadRecord)) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 3; i++ {
			w := workloadRecord{Name: "http-churn", Attempted: 1000, Metrics: metrics{
				"p50_ms": {1.0, "ms"}, "write_p99_ms": {1500, "ms"}, "error_rate": {0, "ratio"}, "core.match_us": {3, "us"}},
				Validity: []validityCheck{{Rule: "loadgen.late_p99_ms <= 1", Value: 0.2, OK: true}}}
			edit(&w)
			if err := appendRecord(path, &record{Schema: schemaName, Workloads: []workloadRecord{w}}); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("base.json", func(*workloadRecord) {})
	for _, tc := range []struct {
		name string
		edit func(*workloadRecord)
		code int
		says string
	}{
		{"same", func(w *workloadRecord) { w.Metrics["p50_ms"] = metric{1.02, "ms"} }, 0, "0 regressed"},
		{"slow reads", func(w *workloadRecord) { w.Metrics["p50_ms"] = metric{1.5, "ms"} }, 1, "regressed"},
		// write latency is not in BENCHMARK.json (one workload has it) but is judged all the same.
		{"slow writes", func(w *workloadRecord) { w.Metrics["write_p99_ms"] = metric{2500, "ms"} }, 1, "write_p99_ms"},
		{"failed operations", func(w *workloadRecord) { w.Failed = 2; w.Metrics["error_rate"] = metric{0.002, "ratio"} }, 1, "2 of 1000 operations failed"},
		{"late generator", func(w *workloadRecord) { w.Validity[0] = validityCheck{"loadgen.late_p99_ms <= 1", 3.5, false} }, 1, "INVALID"},
	} {
		var out bytes.Buffer
		code := compareFiles(&out, "../BENCHMARK.json", base, write(tc.name+".json", tc.edit))
		if code != tc.code || !strings.Contains(out.String(), tc.says) {
			t.Errorf("%s: exit %d, want %d and %q in\n%s", tc.name, code, tc.code, tc.says, out.String())
		}
		if !strings.Contains(out.String(), "core.match_us") {
			t.Errorf("%s: comparison table lacks the per-layer row:\n%s", tc.name, out.String())
		}
	}
}

func TestSpawnReportsServerThatDies(t *testing.T) {
	sp, _ := findSpec("http-churn")
	dir := t.TempDir()
	if _, err := spawn(context.Background(), "/bin/false", "none.tsv", sp, dir); err == nil || !strings.Contains(err.Error(), "exited") {
		t.Errorf("spawn of a binary that exits at once: err = %v, want 'exited before it was ready'", err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "data-*")); len(left) != 0 {
		t.Errorf("data directory left behind: %v", left)
	}
}

// TestSmoke runs every workload through spawn → load → scrape → oracle →
// trace on a 5k-ad corpus, then one workload untraced, and checks that
// what comes out is what BENCHMARK.json promises.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns adserve; skipped under -short")
	}
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	outDir := filepath.Join("..", "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	// Warm the build cache so the time below is the benchmark's, not the
	// compiler's.
	if _, err := buildAdserve(context.Background(), "..", outDir); err != nil {
		t.Fatal(err)
	}
	records := filepath.Join(t.TempDir(), "runs.json")

	start := time.Now()
	if code := run([]string{"-root", "..", "-smoke", "-trace", "1", "-out", records}); code != 0 {
		t.Fatalf("traced smoke exited %d", code)
	}
	if took := time.Since(start); took > 15*time.Second {
		t.Errorf("traced smoke of all four workloads took %v, want < 15s", took)
	}
	if code := run([]string{"-root", "..", "-smoke", "-workload", "http-churn", "-out", records}); code != 0 {
		t.Fatalf("untraced smoke exited %d", code)
	}

	recs, err := readRecords(records)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || len(recs[0].Workloads) != len(specs) || len(recs[1].Workloads) != 1 {
		t.Fatalf("got %d records, want a traced one with %d workloads and an untraced one with 1", len(recs), len(specs))
	}
	names := func(defs []metricDef) []string {
		var out []string
		for _, d := range defs {
			out = append(out, d.Name)
		}
		sort.Strings(out)
		return out
	}
	check := func(w workloadRecord, defs []metricDef) {
		t.Helper()
		if w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, w.Failed, w.Attempted, w.Oracle.First)
		}
		var got []string
		for name := range w.Metrics {
			got = append(got, name)
		}
		sort.Strings(got)
		if want := names(defs); !slices.Equal(got, want) {
			t.Errorf("%s reports metrics\n%v\nBENCHMARK.json names\n%v", w.Name, got, want)
		}
		for _, d := range defs {
			if w.Metrics[d.Name].Unit != d.Unit {
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.Name, d.Name, w.Metrics[d.Name].Unit, d.Unit)
			}
		}
	}
	for _, w := range recs[0].Workloads {
		check(w, bf.PerLayer)
		for _, v := range w.Validity {
			if strings.HasPrefix(v.Rule, "self times sum") && !v.OK {
				t.Errorf("%s: %s: %v", w.Name, v.Rule, v.Value)
			}
		}
		if _, err := os.Stat(filepath.Join("..", w.Trace)); err != nil {
			t.Errorf("%s: trace file: %v", w.Name, err)
		}
	}
	// An untraced run of the one workload with a writer reports every
	// end-to-end metric: BENCHMARK.json's and the harness-gated ones.
	check(recs[1].Workloads[0], slices.Concat(bf.EndToEnd, harnessGated))
	// The driver's line holds BENCHMARK.json's metrics and no other.
	if line := driverResult(&recs[1].Workloads[0], bf.EndToEnd); len(line.Metrics) != len(bf.EndToEnd) || !line.Correct {
		t.Errorf("driver line %+v, want the %d end-to-end metrics of BENCHMARK.json", line, len(bf.EndToEnd))
	}

	// Nothing the runs started or created may outlive them.
	left, _ := filepath.Glob(filepath.Join(outDir, "data-*"))
	wal, _ := filepath.Glob(filepath.Join(outDir, "wal-*"))
	corpora, _ := filepath.Glob(filepath.Join(outDir, "corpus-*"))
	if all := slices.Concat(left, wal, corpora); len(all) != 0 {
		t.Errorf("temporary files left behind: %v", all)
	}
}
