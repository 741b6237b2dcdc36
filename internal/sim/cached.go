package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"path/filepath"
	"time"

	"adindex"
	"adindex/internal/corpus"
	"adindex/internal/optimize"
	"adindex/internal/server"
)

// cachedTarget is the plain index's schedule driven through the serving
// layer: an index of its own (durable and crash-restarted under
// cfg.Durable) behind server.New(ix, cfg).Handler(), mutated by POST
// /insert, /delete and /optimize and read by GET /search and POST
// /search/batch, so every answer passes the reply cache. Each query is
// asked three times (its second sighting stores the reply, and the third
// ask must be a hit), and after every op that mutates
// or re-lays-out the index every query asked so far is asked again: a
// cached reply that a write should have dropped diverges from the oracle
// at the op that wrote it, and an op that changes no answer must cost no
// entry. A crash-restart builds a new server, as a process restart does,
// so its cache starts empty, and asks every query twice to fill it again.
// The op methods are no-ops on a nil target (a config without
// Config.Cached) and return "" or a divergence description.
type cachedTarget struct {
	ix  *adindex.Index // the served index; replaced by crash
	dur *durTarget     // ix's crash machinery under cfg.Durable, else nil
	h   http.Handler

	asked  []string        // distinct queries asked so far, in order
	known  map[string]bool // asked, as a set
	checks int             // oracle comparisons made
	// bounded counts replies flagged truncated: the walk bound stopped
	// them (see Result.Bounded).
	bounded int
	// survived counts re-asked queries answered from the cache after an
	// insert or a found delete: entries the write left alone.
	survived int
}

func newCachedTarget(cfg Config) (*cachedTarget, error) {
	c := &cachedTarget{known: map[string]bool{}}
	if cfg.Durable {
		cfg.Dir = filepath.Join(cfg.Dir, "cached")
		d, err := newDurTarget(cfg)
		if err != nil {
			return nil, err
		}
		c.dur, c.ix = d, d.ix
	} else {
		c.ix = adindex.New(indexOptions(cfg))
	}
	c.serve()
	return c, nil
}

func (c *cachedTarget) serve() {
	c.h = server.New(c.ix, server.Config{
		RequestTimeout: time.Minute, // a slow race-detector run must not truncate
		Logger:         log.New(io.Discard, "", 0),
	}).Handler()
}

func (c *cachedTarget) close() {
	if c != nil && c.dur != nil {
		c.dur.close()
	}
}

// recorder is the ResponseWriter the handler writes into.
type recorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.header }
func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}
func (r *recorder) Write(b []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(b)
}

// call runs one request through the handler and decodes its JSON reply
// into out; anything but a 200 is an error.
func (c *cachedTarget) call(method, target string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, target, rd)
	if err != nil {
		return err
	}
	rec := &recorder{header: http.Header{}}
	c.h.ServeHTTP(rec, req)
	if rec.code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, target, rec.code, bytes.TrimSpace(rec.body.Bytes()))
	}
	if err := json.Unmarshal(rec.body.Bytes(), out); err != nil {
		return fmt.Errorf("%s %s: %v in %s", method, target, err, rec.body.Bytes())
	}
	return nil
}

// cachedReply is what the harness reads of a /search reply or of one
// /search/batch result.
type cachedReply struct {
	Cached    bool        `json:"cached"`
	Matched   int         `json:"matched"`
	Ads       []corpus.Ad `json:"ads"`
	Truncated bool        `json:"truncated"`
}

// diff holds one reply to the oracle: exactly, or, for one flagged
// truncated (the walk bound stops only a query of more than 12 indexed
// words), as an ID-ordered verified sub-multiset of its answer.
func (c *cachedTarget) diff(q string, reply *cachedReply, oracle *model) string {
	c.checks++
	if reply.Matched != len(reply.Ads) {
		return fmt.Sprintf("query %q: truncated=%v, matched %d, %d ads", q, reply.Truncated, reply.Matched, len(reply.Ads))
	}
	if reply.Truncated {
		c.bounded++
		if d := subsetDiffAds(reply.Ads, oracle.broadMatch(q)); d != "" {
			return fmt.Sprintf("truncated query %q (cached=%v): %s", q, reply.Cached, d)
		}
		return ""
	}
	if d := diffAds(reply.Ads, oracle.broadMatch(q)); d != "" {
		return fmt.Sprintf("query %q (cached=%v): %s", q, reply.Cached, d)
	}
	return ""
}

// ask sends one /search and holds the reply to the oracle.
func (c *cachedTarget) ask(q string, oracle *model) (cachedReply, string) {
	var reply cachedReply
	if err := c.call("GET", "/search?q="+url.QueryEscape(q), nil, &reply); err != nil {
		return reply, err.Error()
	}
	return reply, c.diff(q, &reply, oracle)
}

// query asks q three times: every answer is the oracle's and the third
// comes from the cache, which the second sighting stored it in — unless
// the answer is truncated, which is never stored (nor re-asked).
func (c *cachedTarget) query(q string, oracle *model) string {
	if c == nil {
		return ""
	}
	for range 2 {
		if _, d := c.ask(q, oracle); d != "" {
			return d
		}
	}
	repeat, d := c.ask(q, oracle)
	if d != "" {
		return d
	}
	if repeat.Truncated {
		return ""
	}
	if !repeat.Cached {
		return fmt.Sprintf("query %q: the repeat was not served from the cache", q)
	}
	if !c.known[q] {
		c.known[q] = true
		c.asked = append(c.asked, q)
	}
	return ""
}

// batch sends the queries as one /search/batch.
func (c *cachedTarget) batch(queries []string, oracle *model) string {
	if c == nil {
		return ""
	}
	var reply struct {
		Results []cachedReply `json:"results"`
	}
	body := struct {
		Queries []string `json:"queries"`
	}{queries}
	if err := c.call("POST", "/search/batch", body, &reply); err != nil {
		return err.Error()
	}
	if len(reply.Results) != len(queries) {
		return fmt.Sprintf("batch of %d queries answered %d results", len(queries), len(reply.Results))
	}
	for i, q := range queries {
		if d := c.diff(q, &reply.Results[i], oracle); d != "" {
			return "batch " + d
		}
	}
	return ""
}

// recheck asks every query asked so far once more. After an op that
// changes no answer (unchanged) each must still come from the cache;
// after a write, those that do are counted as survivors.
func (c *cachedTarget) recheck(oracle *model, unchanged bool) string {
	for _, q := range c.asked {
		reply, d := c.ask(q, oracle)
		switch {
		case d != "":
			return "re-asked " + d
		case unchanged && !reply.Cached:
			return fmt.Sprintf("query %q lost its cache entry to an op that changed no answer", q)
		case !unchanged && reply.Cached:
			c.survived++
		}
	}
	return ""
}

func (c *cachedTarget) insert(ad corpus.Ad, oracle *model) string {
	if c == nil {
		return ""
	}
	var reply struct {
		OK bool `json:"ok"`
	}
	body := struct {
		ID     uint64      `json:"id"`
		Phrase string      `json:"phrase"`
		Meta   corpus.Meta `json:"meta"`
	}{ad.ID, ad.Phrase, ad.Meta}
	if err := c.call("POST", "/insert", body, &reply); err != nil {
		return err.Error()
	}
	return c.recheck(oracle, false)
}

func (c *cachedTarget) delete(id uint64, phrase string, want bool, oracle *model) string {
	if c == nil {
		return ""
	}
	var reply struct {
		Found bool `json:"found"`
	}
	body := struct {
		ID     uint64 `json:"id"`
		Phrase string `json:"phrase"`
	}{id, phrase}
	if err := c.call("POST", "/delete", body, &reply); err != nil {
		return err.Error()
	}
	if reply.Found != want {
		return fmt.Sprintf("Delete(%d, %q) = %v, oracle says %v", id, phrase, reply.Found, want)
	}
	return c.recheck(oracle, !want)
}

// relayout applies one of the ops that move records without changing an
// answer — Optimize over HTTP, the rest on the index, which is how an
// embedding process reaches them — and requires every entry to survive it.
func (c *cachedTarget) relayout(kind Kind, oracle *model) string {
	if c == nil {
		return ""
	}
	var err error
	switch kind {
	case OpOptimize:
		err = c.call("POST", "/optimize", nil, new(adindex.OptimizeReport))
	case OpApplyMapping:
		var buf bytes.Buffer
		if err = optimize.WriteMapping(&buf, oracle.mapping()); err == nil {
			err = c.ix.ApplyMapping(&buf)
		}
	case OpPersist:
		err = c.ix.Persist()
	}
	if err != nil {
		return fmt.Sprintf("%s: %v", kind, err)
	}
	return c.recheck(oracle, true)
}

// crash kills and recovers the index and starts a new server on it.
func (c *cachedTarget) crash(opIndex int, torn bool, oracle *model) string {
	if c == nil || c.dur == nil {
		return ""
	}
	if err := c.dur.crash(opIndex, torn); err != nil {
		return fmt.Sprintf("crash-restart (torn=%v): %v", torn, err)
	}
	c.ix = c.dur.ix
	c.serve()
	// The new server's cache is empty: the recheck is each query's first
	// sighting there, and asking once more stores its reply again.
	if d := c.recheck(oracle, false); d != "" {
		return d
	}
	return c.recheck(oracle, false)
}
