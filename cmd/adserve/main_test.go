// Flag-matrix smoke: every deployment mode of the real binary started on
// loopback and driven over HTTP, and every row of the refusals table run
// to its non-zero exit. The binary under test is this test binary
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
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"adindex"
	"adindex/internal/corpus"
	"adindex/internal/multiserver"
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

// startupTimings requires the two lines that say where a start's time
// went, in every mode that builds an index: the corpus load and the build.
func startupTimings(t *testing.T, p *proc) {
	t.Helper()
	p.logged(t, `loaded 400 ads from \S+ in (\d+) ms`)
	p.logged(t, `index ready: 400 ads.* built in (\d+) ms`)
}

// TestShardsFrontEnd: two adserve backends speaking the TCP frame
// protocol (-tcp-index, one also -tcp-ad), each over half the corpus,
// behind a -shards front end on a frozen route.
func TestShardsFrontEnd(t *testing.T) {
	c := testCorpus()
	dir := t.TempDir()
	half := len(c.Ads) / 2
	var index []string
	var ad string
	for i, ads := range [][]corpus.Ad{c.Ads[:half], c.Ads[half:]} {
		path := writeCorpus(t, &corpus.Corpus{Ads: ads}, filepath.Join(dir, fmt.Sprintf("shard%d.tsv", i)))
		args := []string{"-corpus", path, "-addr", "127.0.0.1:0", "-tcp-index", "127.0.0.1:0"}
		if i == 0 {
			args = append(args, "-tcp-ad", "127.0.0.1:0")
		}
		p := start(t, args...)
		index = append(index, p.logged(t, `serving TCP index protocol on (\S+)`))
		if i == 0 {
			ad = p.logged(t, `serving TCP ad-metadata protocol on (\S+)`)
		}
	}
	front := start(t, "-addr", "127.0.0.1:0", "-shards", strings.Join(index, ";"), "-ad-server", ad)
	base := front.base(t)
	awaitReady(t, front, base)
	searchMatches(t, base, c.Ads[0].Phrase, c.Ads[0].ID)
	searchMatches(t, base, c.Ads[half].Phrase, c.Ads[half].ID)

	// A shard with no reachable replica fails the start.
	dark := start(t, "-addr", "127.0.0.1:0", "-shards", index[0]+";127.0.0.1:1", "-ad-server", ad,
		"-net-timeout", "200ms")
	<-dark.done
	if dark.cmd.ProcessState.Success() || !strings.Contains(dark.logText(), "no reachable replica for shard 1") {
		t.Fatalf("front end over a dark shard: exit %v, log:\n%s", dark.cmd.ProcessState, dark.logText())
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
	// -elastic-slots left at its default: the line reports the table's
	// slots, not the flag's zero.
	if slots := p.logged(t, `elastic cluster: 2/8 shards, (\d+) slots`); slots != "64" {
		t.Errorf("start-up line reports %s slots, want 64", slots)
	}
	startupTimings(t, p)
	searchMatches(t, base, c.Ads[0].Phrase, c.Ads[0].ID)
	// The shards answer with the ad's own record in the one round trip, so
	// the node runs and dials no ad server unless -tcp-ad asks for one.
	_, body0 := get(t, base+"/search?q="+url.QueryEscape(c.Ads[0].Phrase))
	if want := fmt.Sprintf(`{"BidMicros":%d,"ClickRate":%d}`, c.Ads[0].Meta.BidMicros, c.Ads[0].Meta.ClickRate); !strings.Contains(body0, want) {
		t.Errorf("/search %q carries no %s: %s", c.Ads[0].Phrase, want, body0)
	}
	if _, metrics := get(t, base+"/metrics"); strings.Contains(metrics, "ad_breaker") || !strings.Contains(metrics, `"live_shards":2`) {
		t.Errorf("/metrics of an elastic node shows an ad-server connection (or no shards): %s", metrics)
	}
	if strings.Contains(p.logText(), "ad-metadata") {
		t.Errorf("elastic node started an ad server unasked:\n%s", p.logText())
	}
	withAd := start(t, "-corpus", path, "-addr", "127.0.0.1:0", "-elastic", "2", "-tcp-ad", "127.0.0.1:0")
	withAd.logged(t, `serving TCP ad-metadata protocol on (\S+)`)

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

// TestRefusals runs every row of the refusals table: the mode it names,
// with the flag it forbids given (or the flag it requires left out),
// must exit non-zero printing the row's reason.
func TestRefusals(t *testing.T) {
	modeArgs := map[string]map[string]string{
		modeMemory:  {"corpus": "x"},
		modeElastic: {"elastic": "2", "corpus": "x"},
		modeShards:  {"shards": "127.0.0.1:1", "ad-server": "127.0.0.1:1"},
	}
	sample := map[string]string{
		"shards": "127.0.0.1:1", "data-dir": "x", "rewrite": "true", "synonyms": "x",
		"tcp-index": "127.0.0.1:0", "tcp-ad": "127.0.0.1:0", "adapt-interval": "1s",
		"query-budget": "8", "mapping": "x",
	}
	for _, r := range refusals {
		t.Run(r.flag+" with "+r.mode, func(t *testing.T) {
			set := map[string]string{}
			for k, v := range modeArgs[r.mode] {
				set[k] = v
			}
			if r.required {
				delete(set, r.flag)
			} else if v, ok := sample[r.flag]; ok {
				set[r.flag] = v
			} else {
				t.Fatalf("no sample value for -%s", r.flag)
			}
			args := []string{childArg, "-addr=127.0.0.1:0"}
			for k, v := range set {
				args = append(args, "-"+k+"="+v)
			}
			// A command line that is wrongly accepted may start serving;
			// the deadline turns that into a failure, not a hang.
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			out, err := exec.CommandContext(ctx, os.Args[0], args...).CombinedOutput()
			if err == nil {
				t.Fatalf("adserve %v started; want a refusal", args[1:])
			}
			if !strings.Contains(string(out), r.reason) {
				t.Fatalf("adserve %v printed\n%s\nwant the reason %q", args[1:], out, r.reason)
			}
		})
	}
}

// TestFlagCount pins the size of the flag surface: a simplification adds
// no knob.
func TestFlagCount(t *testing.T) {
	fs := flag.NewFlagSet("adserve", flag.ContinueOnError)
	defineFlags(fs)
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 37 {
		t.Errorf("adserve defines %d flags, want 37", n)
	}
}

// TestIndexBackend: the -tcp-index backend honours the whole request it
// can — the deadline and -query-budget bound the match and are reported in
// the ID frame's flags, an epoch tag is served unchecked — and refuses the
// part it cannot: it holds no records to answer a records request with.
func TestIndexBackend(t *testing.T) {
	c := testCorpus()
	b := indexBackend{ix: adindex.Build(c.Ads, adindex.Options{}), budget: 1}
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
	if _, err := b.AppendMatch(nil, multiserver.Request{Query: q, Records: true}); err == nil {
		t.Error("a records request was answered: this backend has no records to send")
	}
}
