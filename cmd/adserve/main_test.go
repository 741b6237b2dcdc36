// Flag-matrix smoke: every deployment mode of the real binary started on
// loopback and driven over HTTP, and every flag a deployment needs but
// lacks, or is given but does not read, run to its non-zero exit. The binary under test is this test binary
// re-executed (see TestMain), so it is built — and race-instrumented —
// exactly like the tests.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"adindex"
	"adindex/internal/core"
	"adindex/internal/corpus"
	"adindex/internal/multiserver"
	"adindex/internal/optimize"
	"adindex/internal/server"
	"adindex/internal/shard"
)

// childArg as the first argument turns the test binary into adserve.
const childArg = "adserve-under-test"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == childArg {
		os.Args = append([]string{"adserve"}, os.Args[2:]...)
		main()
		return
	}
	os.Exit(m.Run())
}

// proc is one running adserve.
type proc struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once stderr is drained and the child reaped

	mu  sync.Mutex
	log []string
}

// start launches adserve with args; the child is killed when the test
// ends.
func start(t *testing.T, args ...string) *proc {
	t.Helper()
	p := &proc{cmd: exec.Command(os.Args[0], append([]string{childArg}, args...)...), done: make(chan struct{})}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			p.mu.Lock()
			p.log = append(p.log, sc.Text())
			p.mu.Unlock()
		}
		p.cmd.Wait()
	}()
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		<-p.done
	})
	return p
}

func (p *proc) logText() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.log, "\n")
}

// logged waits for a log line matching re and returns its first
// submatch.
func (p *proc) logged(t *testing.T, re string) string {
	t.Helper()
	rx := regexp.MustCompile(re)
	deadline := time.Now().Add(30 * time.Second)
	for {
		text := p.logText()
		if m := rx.FindStringSubmatch(text); m != nil {
			return m[1]
		}
		select {
		case <-p.done:
			t.Fatalf("adserve exited before logging %q; its log:\n%s", re, p.logText())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("adserve never logged %q; its log:\n%s", re, text)
		}
	}
}

// base waits for the HTTP listener and returns its URL.
func (p *proc) base(t *testing.T) string {
	t.Helper()
	return "http://" + p.logged(t, `listening on http://(\S+)`)
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// awaitReady polls /readyz until it answers 200.
func awaitReady(t *testing.T, p *proc, base string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if code, _ := get(t, base+"/readyz"); code == http.StatusOK {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("never ready; log:\n%s", p.logText())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// searchMatches runs one broad /search for phrase and requires id among
// the matches — full ads from a local index, IDs from a front end.
func searchMatches(t *testing.T, base, phrase string, id uint64) {
	t.Helper()
	code, body := get(t, base+"/search?q="+url.QueryEscape(phrase))
	if code != http.StatusOK {
		t.Fatalf("/search %q = %d %s", phrase, code, body)
	}
	var resp struct {
		Ads []struct {
			ID uint64 `json:"ID"`
		} `json:"ads"`
		IDs []uint64 `json:"ids"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("/search %q: %v in %s", phrase, err, body)
	}
	for _, ad := range resp.Ads {
		resp.IDs = append(resp.IDs, ad.ID)
	}
	for _, got := range resp.IDs {
		if got == id {
			return
		}
	}
	t.Fatalf("/search %q did not return ad %d: %s", phrase, id, body)
}

func testCorpus() *corpus.Corpus {
	return corpus.Generate(corpus.GenOptions{NumAds: 400, Seed: 15})
}

func writeCorpus(t *testing.T, c *corpus.Corpus, path string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLocalModes: the in-memory and the durable index share one flow —
// the port is bound, and /readyz answers 503, before the index exists.
// The corpus is a FIFO the test has not written yet, so the server is
// observed in that state for certain, not by winning a race.
func TestLocalModes(t *testing.T) {
	c := testCorpus()
	for _, mode := range []struct {
		name string
		args func(dir string) []string
	}{
		{"memory", func(string) []string { return nil }},
		{"data-dir", func(dir string) []string { return []string{"-data-dir", filepath.Join(dir, "state")} }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			dir := t.TempDir()
			fifo := filepath.Join(dir, "corpus.fifo")
			if err := syscall.Mkfifo(fifo, 0o600); err != nil {
				t.Skipf("mkfifo: %v", err)
			}
			p := start(t, append([]string{"-corpus", fifo, "-addr", "127.0.0.1:0"}, mode.args(dir)...)...)
			base := p.base(t)
			if code, _ := get(t, base+"/healthz"); code != http.StatusOK {
				t.Fatalf("healthz before the index exists = %d", code)
			}
			if code, body := get(t, base+"/readyz"); code != http.StatusServiceUnavailable {
				t.Fatalf("readyz before the index exists = %d %q, want 503", code, body)
			}
			w, err := os.OpenFile(fifo, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Write(w); err != nil {
				t.Fatal(err)
			}
			w.Close()
			awaitReady(t, p, base)
			searchMatches(t, base, c.Ads[0].Phrase, c.Ads[0].ID)
			startupTimings(t, p)
			if _, metrics := get(t, base+"/metrics"); !strings.Contains(metrics, `"build_seconds":`) {
				t.Errorf("/metrics carries no index.build_seconds: %s", metrics)
			}
		})
	}
}

// TestMappingStart: an in-memory start under -mapping builds its index
// once, under the mapping: the node count is the mapped build's, the
// mapping counts as the one installed re-mapping, and no remap published
// a second base (the epoch is still 0). A mapping with a locator outside
// its word set stops the start with the mapping reader's reason.
func TestMappingStart(t *testing.T) {
	c := testCorpus()
	dir := t.TempDir()
	path := writeCorpus(t, c, filepath.Join(dir, "corpus.tsv"))
	mapping := map[string][]string{}
	for _, ad := range c.Ads {
		if len(ad.Words) > 1 {
			mapping[ad.SetKey()] = ad.Words[:1]
		}
	}
	want, err := core.NewWithMapping(c.Ads, mapping, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	writeMapping := func(name string, m map[string][]string) string {
		var buf bytes.Buffer
		if err := optimize.WriteMapping(&buf, m); err != nil {
			t.Fatal(err)
		}
		mpath := filepath.Join(dir, name)
		if err := os.WriteFile(mpath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return mpath
	}

	p := start(t, "-corpus", path, "-mapping", writeMapping("mapping.tsv", mapping), "-addr", "127.0.0.1:0")
	base := p.base(t)
	awaitReady(t, p, base)
	p.logged(t, `(applied offline mapping from \S+)`)
	if nodes := p.logged(t, `index ready: 400 ads, (\d+) nodes`); nodes != fmt.Sprint(want.NumNodes()) {
		t.Errorf("index ready with %s nodes, the mapped build has %d", nodes, want.NumNodes())
	}
	_, body := get(t, base+"/metrics")
	var m struct {
		Epoch uint64 `json:"epoch"`
		Index struct {
			Remaps uint64 `json:"remaps"`
		} `json:"index"`
	}
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatal(err)
	}
	if m.Index.Remaps != 1 || m.Epoch != 0 {
		t.Errorf("/metrics after a -mapping start: remaps %d, epoch %d; want 1 and 0", m.Index.Remaps, m.Epoch)
	}
	for _, ad := range c.Ads[:20] {
		searchMatches(t, base, ad.Phrase, ad.ID)
	}

	// A locator must be a subset of the word set it places.
	bad := writeMapping("bad.tsv", map[string][]string{c.Ads[0].SetKey(): {"zqxwnotaword"}})
	refused := start(t, "-corpus", path, "-mapping", bad, "-addr", "127.0.0.1:0")
	<-refused.done
	if refused.cmd.ProcessState.Success() || !strings.Contains(refused.logText(), "not a subset of") {
		t.Fatalf("a start under a locator outside its word set: exit %v, log:\n%s", refused.cmd.ProcessState, refused.logText())
	}
}

// TestStartExpandsNoAds: an in-memory or -elastic start reads the corpus
// into the loader's columns and never expands it into []Ad. With every
// allocation since the start sampled, the heap profile at ready holds the
// reader's allocations and none of an expansion into ads or of the []Ad
// adapter.
func TestStartExpandsNoAds(t *testing.T) {
	t.Setenv("GODEBUG", "memprofilerate=1")
	path := writeCorpus(t, testCorpus(), filepath.Join(t.TempDir(), "corpus.tsv"))
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"memory", nil},
		{"elastic", []string{"-elastic", "2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := start(t, append([]string{"-corpus", path, "-addr", "127.0.0.1:0"}, tc.args...)...)
			base := p.base(t)
			awaitReady(t, p, base)
			_, prof := get(t, base+"/debug/pprof/heap?debug=1")
			if !strings.Contains(prof, "corpus.(*blockParser).parse") {
				t.Fatalf("the heap profile holds no allocation of the reader:\n%.2000s", prof)
			}
			for _, fn := range []string{"corpus.(*Columns).Ads", "corpus.FromAds", "corpus.Read+"} {
				if strings.Contains(prof, fn) {
					t.Errorf("the heap profile at ready holds allocations of %s", fn)
				}
			}
		})
	}
}

// startupTimings requires the two lines that say where a start's time
// went, in every mode that builds an index: the corpus load and the build.
func startupTimings(t *testing.T, p *proc) {
	t.Helper()
	p.logged(t, `loaded 400 ads from \S+ in (\d+) ms`)
	p.logged(t, `index ready: 400 ads.* built in (\d+) ms`)
}

// TestShardsFrontEnd: two adserve backends speaking the TCP frame
// protocol (-tcp-index), each over half the corpus, behind a -shards front
// end on a frozen route. The backends answer with their records as their
// live indexes hold them, so a write on a backend is in the front end's
// next answer: a new ad with the bid it was inserted with, and an ad
// re-inserted under its ID with its new bid.
func TestShardsFrontEnd(t *testing.T) {
	c := testCorpus()
	dir := t.TempDir()
	half := len(c.Ads) / 2
	var index, backend []string
	for i, ads := range [][]corpus.Ad{c.Ads[:half], c.Ads[half:]} {
		path := writeCorpus(t, &corpus.Corpus{Ads: ads}, filepath.Join(dir, fmt.Sprintf("shard%d.tsv", i)))
		p := start(t, "-corpus", path, "-addr", "127.0.0.1:0", "-tcp-index", "127.0.0.1:0")
		index = append(index, p.logged(t, `serving TCP index protocol on (\S+)`))
		backend = append(backend, p.base(t))
	}
	front := start(t, "-addr", "127.0.0.1:0", "-shards", strings.Join(index, ";"))
	base := front.base(t)
	awaitReady(t, front, base)
	for _, ad := range []corpus.Ad{c.Ads[0], c.Ads[half]} {
		if got := frontRecords(t, base, ad.Phrase)[ad.ID]; len(got) != 1 || got[0] != metaOf(ad.Meta) {
			t.Errorf("ad %d through the front end: %+v, want its corpus record %+v", ad.ID, got, metaOf(ad.Meta))
		}
	}

	old := c.Ads[half]
	renewed := corpus.NewAd(old.ID, old.Phrase, corpus.Meta{BidMicros: old.Meta.BidMicros + 777, ClickRate: 42})
	added := corpus.NewAd(900001, "zqxw widget", corpus.Meta{BidMicros: 5000, ClickRate: 7})
	post(t, backend[1]+"/delete", fmt.Sprintf(`{"id":%d,"phrase":%q}`, old.ID, old.Phrase))
	for _, ad := range []corpus.Ad{renewed, added} {
		post(t, backend[1]+"/insert", fmt.Sprintf(`{"id":%d,"phrase":%q,"meta":{"BidMicros":%d,"ClickRate":%d}}`,
			ad.ID, ad.Phrase, ad.Meta.BidMicros, ad.Meta.ClickRate))
		if got := frontRecords(t, base, ad.Phrase)[ad.ID]; len(got) != 1 || got[0] != metaOf(ad.Meta) {
			t.Errorf("ad %d written on a backend reads through the front end as %+v, want %+v", ad.ID, got, metaOf(ad.Meta))
		}
	}

	// A shard with no reachable replica fails the start, at once: the
	// dial is refused, so no exchange waits out its deadline.
	began := time.Now()
	dark := start(t, "-addr", "127.0.0.1:0", "-shards", index[0]+";127.0.0.1:1")
	<-dark.done
	if dark.cmd.ProcessState.Success() || !strings.Contains(dark.logText(), "no reachable replica for shard 1") {
		t.Fatalf("front end over a dark shard: exit %v, log:\n%s", dark.cmd.ProcessState, dark.logText())
	}
	if took := time.Since(began); took >= multiserver.DefaultTimeout {
		t.Errorf("front end over a dark shard took %v to fail, not less than one exchange deadline (%v)", took, multiserver.DefaultTimeout)
	}
}

func metaOf(m corpus.Meta) multiserver.AdMeta {
	return multiserver.AdMeta{BidMicros: m.BidMicros, ClickRate: m.ClickRate}
}

// frontRecords runs one broad /search for q through a front end and
// returns the records of the reply by ID.
func frontRecords(t *testing.T, base, q string) map[uint64][]multiserver.AdMeta {
	t.Helper()
	code, body := get(t, base+"/search?q="+url.QueryEscape(q))
	var resp struct {
		IDs  []uint64             `json:"ids"`
		Meta []multiserver.AdMeta `json:"meta"`
	}
	if err := json.Unmarshal([]byte(body), &resp); code != http.StatusOK || err != nil || len(resp.Meta) != len(resp.IDs) {
		t.Fatalf("/search %q = %d %s (%v)", q, code, body, err)
	}
	out := make(map[uint64][]multiserver.AdMeta)
	for i, id := range resp.IDs {
		out[id] = append(out[id], resp.Meta[i])
	}
	return out
}

// post sends body to url and requires a 200.
func post(t *testing.T, url, body string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	reply, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s %s = %d %s", url, body, resp.StatusCode, reply)
	}
}

// TestElasticMode: -elastic 2, one live split over the admin endpoint,
// and a search on either side of it.
func TestElasticMode(t *testing.T) {
	c := testCorpus()
	path := writeCorpus(t, c, filepath.Join(t.TempDir(), "corpus.tsv"))
	p := start(t, "-corpus", path, "-addr", "127.0.0.1:0", "-elastic", "2")
	base := p.base(t)
	awaitReady(t, p, base)
	// The line reports the routing table's slots and shard cap.
	if slots := p.logged(t, `elastic cluster: 2/8 shards, (\d+) slots`); slots != "64" {
		t.Errorf("start-up line reports %s slots, want 64", slots)
	}
	startupTimings(t, p)
	searchMatches(t, base, c.Ads[0].Phrase, c.Ads[0].ID)
	// The shards answer with the ad's own record in the one round trip.
	if got := frontRecords(t, base, c.Ads[0].Phrase)[c.Ads[0].ID]; len(got) != 1 || got[0] != metaOf(c.Ads[0].Meta) {
		t.Errorf("ad %d through the elastic front end: %+v, want %+v", c.Ads[0].ID, got, metaOf(c.Ads[0].Meta))
	}
	if _, metrics := get(t, base+"/metrics"); !strings.Contains(metrics, `"live_shards":2`) {
		t.Errorf("/metrics of an elastic node shows no two live shards: %s", metrics)
	}

	resp, err := http.Post(base+"/admin/rebalance?op=split", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"new_shard":2`) {
		t.Fatalf("split = %d %s", resp.StatusCode, body)
	}
	for _, ad := range c.Ads[:20] {
		searchMatches(t, base, ad.Phrase, ad.ID)
	}
}

// TestRefusals starts every deployment without each flag it needs, and
// with each flag it does not read: every such command line must exit
// non-zero printing its reason.
func TestRefusals(t *testing.T) {
	modeArgs := map[mode]map[string]string{
		modeMemory:  {"corpus": "x"},
		modeDurable: {"data-dir": filepath.Join(t.TempDir(), "state")},
		modeElastic: {"elastic": "2", "corpus": "x"},
		modeShards:  {"shards": "127.0.0.1:1"},
	}
	sample := map[string]string{
		"corpus": "x", "mapping": "x", "cache-entries": "5",
		"adapt-interval": "1s", "query-budget": "8", "rewrite": "true", "synonyms": "x",
		"data-dir": "x", "wal-sync": "none", "snapshot-every": "10", "allow-partial-recovery": "true",
		"tcp-index": "127.0.0.1:0", "elastic": "2",
		"shards": "127.0.0.1:1", "hedge-after": "5ms", "allow-partial": "true",
	}
	for _, n := range needs {
		t.Run(n.flag+" with "+n.mode.String(), func(t *testing.T) {
			set := maps.Clone(modeArgs[n.mode])
			delete(set, n.flag)
			refused(t, set, n.reason)
		})
	}
	fs := flag.NewFlagSet("adserve", flag.ContinueOnError)
	defineFlags(fs)
	fs.VisitAll(func(fl *flag.Flag) {
		if readers[fl.Name] == 0 {
			t.Errorf("-%s declares no deployment that reads it", fl.Name)
		}
		for m := modeMemory; m <= modeShards; m <<= 1 {
			if readers[fl.Name]&m != 0 {
				continue
			}
			t.Run(fl.Name+" with "+m.String(), func(t *testing.T) {
				set := maps.Clone(modeArgs[m])
				set[fl.Name] = sample[fl.Name]
				if modeOf(t, set) != m {
					// The flag selects its own deployment (-elastic, -shards,
					// -data-dir); given at its default it selects nothing but
					// is still given.
					set[fl.Name] = fl.DefValue
				}
				if got := modeOf(t, set); got != m {
					t.Fatalf("no command line gives -%s to %s: %v selects %s", fl.Name, m, set, got)
				}
				refused(t, set, reason(fl.Name, m))
			})
		}
	})
}

// modeOf is the deployment the flags in set select.
func modeOf(t *testing.T, set map[string]string) mode {
	t.Helper()
	fs := flag.NewFlagSet("adserve", flag.ContinueOnError)
	f := defineFlags(fs)
	if err := fs.Parse(flagArgs(set)); err != nil {
		t.Fatal(err)
	}
	return f.mode()
}

func flagArgs(set map[string]string) []string {
	var args []string
	for k, v := range set {
		args = append(args, "-"+k+"="+v)
	}
	return args
}

// refused runs adserve with the flags in set and requires a non-zero exit
// printing reason.
func refused(t *testing.T, set map[string]string, reason string) {
	t.Helper()
	args := append([]string{childArg, "-addr=127.0.0.1:0"}, flagArgs(set)...)
	// A command line that is wrongly accepted may start serving; the
	// deadline turns that into a failure, not a hang.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, os.Args[0], args...).CombinedOutput()
	if err == nil {
		t.Fatalf("adserve %v started; want a refusal", args[1:])
	}
	if !strings.Contains(string(out), reason) {
		t.Fatalf("adserve %v printed\n%s\nwant the reason %q", args[1:], out, reason)
	}
}

// TestSettableValues pins the size of adserve's configuration surface: its
// flags plus the exported fields of the option structs they reach, counted
// by reflection. A field whose type is a struct with exported fields, or a
// pointer to one, counts as those fields. A simplification adds no knob;
// `make size` prints this test's log, which names every counted field by
// its path, so a diff of two logs shows which knob a change added or
// removed.
func TestSettableValues(t *testing.T) {
	fs := flag.NewFlagSet("adserve", flag.ContinueOnError)
	defineFlags(fs)
	flags := 0
	fs.VisitAll(func(*flag.Flag) { flags++ })
	var fields []string
	for _, opts := range []any{adindex.Options{}, adindex.DurableConfig{}, server.Config{}, shard.Options{}, shard.ElasticOptions{}} {
		typ := reflect.TypeOf(opts)
		n := len(fields)
		fields = settable(fields, typ.String(), typ)
		t.Logf("%s: %d settable fields", typ, len(fields)-n)
		for _, f := range fields[n:] {
			t.Logf("  %s", f)
		}
	}
	t.Logf("settable values: %d adserve flags + %d option fields = %d", flags, len(fields), flags+len(fields))
	if flags != 21 || len(fields) != 30 {
		t.Errorf("%d flags and %d option fields, want 21 and 30", flags, len(fields))
	}
}

// TestServingDeps pins the module packages the serving binary links. The
// §VI compressed snapshot (internal/hashindex, bitvec, compress) is an
// offline structure adserve never builds, so none of them is here; a
// serving segment that reads them (ROADMAP item 4) is the one change that
// may add them back.
func TestServingDeps(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	var got []string
	for _, pkg := range strings.Fields(string(out)) {
		if pkg == "adindex" || strings.HasPrefix(pkg, "adindex/") {
			got = append(got, pkg)
		}
	}
	slices.Sort(got)
	want := []string{
		"adindex",
		"adindex/cmd/adserve",
		"adindex/internal/core",
		"adindex/internal/corpus",
		"adindex/internal/costmodel",
		"adindex/internal/durable",
		"adindex/internal/multiserver",
		"adindex/internal/optimize",
		"adindex/internal/rewrite",
		"adindex/internal/server",
		"adindex/internal/setcover",
		"adindex/internal/shard",
		"adindex/internal/textnorm",
		"adindex/internal/workload",
	}
	if !slices.Equal(got, want) {
		t.Errorf("adserve links %d module packages:\n%s\nwant %d:\n%s",
			len(got), strings.Join(got, "\n"), len(want), strings.Join(want, "\n"))
	}
}

// settable appends to paths the path, under prefix, of each exported field
// of struct type typ, recursing into struct-typed ones.
func settable(paths []string, prefix string, typ reflect.Type) []string {
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		path := prefix + "." + f.Name
		ft := f.Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Struct {
			if inner := settable(nil, path, ft); len(inner) > 0 {
				paths = append(paths, inner...)
				continue
			}
		}
		paths = append(paths, path)
	}
	return paths
}

// TestIndexBackend: the -tcp-index backend honours the whole request —
// the deadline and -query-budget bound the match and are reported in the
// frame's flags, an epoch tag is served unchecked — and answers a records
// request with every match's ID, bid and click rate, in match order.
func TestIndexBackend(t *testing.T) {
	c := testCorpus()
	ix := adindex.Build(c.Ads, adindex.Options{})
	b := indexBackend{ix: ix, budget: 1}
	q := c.Ads[0].Phrase + " " + c.Ads[1].Phrase + " " + c.Ads[2].Phrase
	body, err := b.AppendMatch(nil, multiserver.Request{Query: q, Epoch: 9, Tagged: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, flags, err := multiserver.DecodeIDsFlags(body); err != nil || flags&multiserver.IDFlagTruncated == 0 {
		t.Errorf("budget 1 on %q: flags %#x, err %v; want the truncated flag", q, flags, err)
	}
	b.budget = 0
	body, err = b.AppendMatch(nil, multiserver.Request{Query: q, Deadline: time.Now().Add(time.Minute)})
	if ids, flags, derr := multiserver.DecodeIDsFlags(body); err != nil || derr != nil || flags != 0 || len(ids) < 3 {
		t.Errorf("unbudgeted: %d ids, flags %#x, err %v / %v; want the three phrases' ads, unflagged", len(ids), flags, err, derr)
	}
	body, err = b.AppendMatch(nil, multiserver.Request{Query: q, Records: true})
	if err != nil {
		t.Fatal(err)
	}
	ids, meta, flags, err := multiserver.DecodeRecords(body)
	want := ix.Match(nil, adindex.Query{Text: q}).Ads
	if err != nil || flags != 0 || len(ids) != len(want) {
		t.Fatalf("records request: %d records, flags %#x, err %v; want %d unflagged", len(ids), flags, err, len(want))
	}
	for i, ad := range want {
		if ids[i] != ad.ID || meta[i] != metaOf(ad.Meta) {
			t.Errorf("record %d = %d %+v, want %d %+v", i, ids[i], meta[i], ad.ID, metaOf(ad.Meta))
		}
	}
}

// TestIndexBackendAllocs: a -tcp-index backend copies a request's matches
// into a pooled slice and encodes the frame straight from it, so a records
// or ID request of hundreds of matches allocates at most twice (the
// copies' string arena) however many it matched.
func TestIndexBackendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	var ads []corpus.Ad
	for i := 0; i < 540; i++ {
		ads = append(ads, corpus.NewAd(uint64(i+1), "used books", corpus.Meta{BidMicros: int64(i), Exclusions: []string{"free"}}))
	}
	b := indexBackend{ix: adindex.Build(ads, adindex.Options{})}
	for _, records := range []bool{true, false} {
		req := multiserver.Request{Query: "cheap used books", Records: records}
		var dst []byte
		run := func() {
			var err error
			if dst, err = b.AppendMatch(dst[:0], req); err != nil {
				t.Fatal(err)
			}
		}
		run()
		decode := multiserver.DecodeIDs
		if records {
			decode = func(body []byte) ([]uint64, error) {
				ids, _, _, err := multiserver.DecodeRecords(body)
				return ids, err
			}
		}
		if ids, err := decode(dst); err != nil || len(ids) != len(ads) {
			t.Fatalf("records %v: %d matches, err %v; want %d", records, len(ids), err, len(ads))
		}
		if allocs := testing.AllocsPerRun(100, run); allocs > 2 {
			t.Errorf("records %v: %d matches cost %.1f allocations, want at most 2", records, len(ads), allocs)
		}
	}
}

// hubCorpus is a corpus whose traffic a re-mapping gains on: hubs 1-word
// hub ads, each with 20 two-word topic ads that a query of the hub and
// some of its topics co-accesses.
func hubCorpus(hubs int) *corpus.Corpus {
	var c corpus.Corpus
	for h := 0; h < hubs; h++ {
		hub := fmt.Sprintf("h%02d", h)
		c.Ads = append(c.Ads, corpus.NewAd(uint64(len(c.Ads)+1), hub, corpus.Meta{BidMicros: 100}))
		for j := 0; j < 20; j++ {
			c.Ads = append(c.Ads, corpus.NewAd(uint64(len(c.Ads)+1), fmt.Sprintf("%s %st%02d", hub, hub, j), corpus.Meta{BidMicros: 100}))
		}
	}
	return &c
}

// TestTCPIndexAdapts: a -tcp-index backend samples the queries it answers
// over the frame protocol, so its -adapt-interval ticks re-map the index
// for traffic that never touches its HTTP port.
func TestTCPIndexAdapts(t *testing.T) {
	const hubs = 4
	path := writeCorpus(t, hubCorpus(hubs), filepath.Join(t.TempDir(), "hubs.tsv"))
	p := start(t, "-corpus", path, "-addr", "127.0.0.1:0", "-tcp-index", "127.0.0.1:0", "-adapt-interval", "20ms")
	addr := p.logged(t, `serving TCP index protocol on (\S+)`)
	base := p.base(t)
	conn, err := multiserver.DialConn(addr, multiserver.ConnOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for j := 0; j < 200; j++ {
		h := j % hubs
		q := fmt.Sprintf("h%02d", h)
		for k := 0; k < 4; k++ {
			q += fmt.Sprintf(" h%02dt%02d", h, (j/hubs+k)%20)
		}
		req := multiserver.AppendQueryText(multiserver.AppendRecordsRequest(nil, 0, nil), q)
		if ids, _, _, err := conn.ExchangeRecords(nil, nil, req, time.Time{}); err != nil || len(ids) != 5 {
			t.Fatalf("records exchange for %q: %d records, err %v; want the hub's and four topics' ads", q, len(ids), err)
		}
	}
	var m struct {
		Index struct {
			Remaps          uint64 `json:"remaps"`
			ObservedQueries int    `json:"observed_queries"`
		} `json:"index"`
	}
	for deadline := time.Now().Add(20 * time.Second); ; {
		_, body := get(t, base+"/metrics")
		if err := json.Unmarshal([]byte(body), &m); err != nil {
			t.Fatalf("/metrics: %v in %s", err, body)
		}
		if m.Index.Remaps >= 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if m.Index.ObservedQueries == 0 || m.Index.Remaps == 0 {
		t.Errorf("after 200 frames: observed_queries %d, remaps %d; want the frames sampled and a tick installed",
			m.Index.ObservedQueries, m.Index.Remaps)
	}
}
