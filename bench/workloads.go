package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"strings"

	"adindex/internal/corpus"
	"adindex/internal/workload"
)

// spec is one benchmark workload: a deployment of the real adserve
// binary plus the traffic driven at it. Every field is fixed here, not
// derived per run, so two runs of one commit see the same load. The
// server is handed only the corpus file and the flags in ServerArgs.
type spec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Ads is the corpus size. The issue asked for 1M; one adserve start
	// at 1M ads is ~10 s of index build on this box and the driver's cap
	// (92 runs in 3420 s, three starts per run for a steady setup_s)
	// leaves ~4 s per start, so every workload runs at 200k.
	Ads int `json:"ads"`
	// ServerArgs are the adserve flags besides -corpus, -addr and the
	// -data-dir path.
	ServerArgs []string `json:"server_args"`
	Durable    bool     `json:"durable"`
	// Remote marks a deployment that answers IDs + metadata instead of
	// full ads (adserve -elastic).
	Remote bool `json:"remote"`
	// Hot selects the stream shape: a power-law sample over Distinct
	// queries (repeats, so the result cache works) instead of Distinct
	// queries each sent once.
	Hot           bool    `json:"hot"`
	Distinct      int     `json:"distinct_queries"`
	HitProb       float64 `json:"hit_prob"`
	MaxExtraWords int     `json:"max_extra_words"`
	LongQueryProb float64 `json:"long_query_prob"`
	// OpenRate is the fixed open-loop arrival rate (requests/s over both
	// connections, every fifth of them a probe): a fifth to a third of the
	// closed-loop qps measured on the 2-core box this benchmark was
	// calibrated on, low enough that the server keeps up while its
	// collector runs (README.md, "Workloads").
	OpenRate int `json:"open_rate_rps"`
	// WriteRate is the writer's fixed mutation rate (0 = read-only). At
	// 48/s a 25 s run makes 1200 writes: four folds (one per 257 writes
	// today, the last due at 21 s) and two WAL rotations.
	WriteRate int `json:"write_rate_per_s"`
}

const (
	fullAds = 200_000
	// churnAds is smaller because a fold rebuilds the whole base: at 100k
	// ads it takes 0.65–1.05 s (the host's speed swings that much), so the
	// four folds of a run cover 10–17 % of it, and fewer of its reads than
	// that, because the closed loop sends fewer while they are slow: the
	// reads' median and 90th percentile both lie outside fold time on every
	// run. At 200k ads four to six folds covered 21–50 %, and whichever
	// percentile sat near that share flipped between in-fold and
	// out-of-fold latency from run to run (ten-seed spreads 0.32–0.38).
	churnAds = 100_000
	smokeAds = 5_000
	// streamLen is the length of a hot stream; it outlasts every phase of
	// a run at the closed-loop rates seen on this box.
	streamLen = 400_000
	// sampleSize is how many queries the per-layer passes and the oracle
	// replay draw from the head of the stream.
	sampleSize = 10_000
	oracleSize = 256
	// The hot streams' frequency law: rank r is sent 200/r times as often
	// as the tail, so the top query is 1 % of the traffic and the top 200
	// are 6 %. The workload generator's default (10000/r^1.2) gives the
	// top query a sixth of the traffic, and then closed-loop qps follows
	// the size of that one reply: 9.5k–12.4k across ten seeds.
	hotZipfS   = 1.0
	hotMaxFreq = 200
	// maxQueryWords is core.Options.MaxQueryWords' default.
	maxQueryWords = 12
)

// The cold mix is long-tail heavy on purpose: fewer embedded bid phrases
// and more (and longer) noise words mean more subset probes and fewer
// matched ads per reply, which gives the index the largest share of
// handler time any mix reaches — about a quarter, not the half the issue
// hoped for (README.md, "Why the cold mix is what it is").
var specs = []spec{
	{
		Name: "http-cold", Ads: fullAds,
		Why:      "distinct queries, never repeated: every request walks the index and copies ads out (a quarter of handler time, the most any mix reaches) and the result cache does nothing",
		Distinct: 300_000, HitProb: 0.1, MaxExtraWords: 6, LongQueryProb: 0.5,
		OpenRate: 2500,
	},
	{
		Name: "http-hot", Ads: fullAds,
		Why:      "power-law repeats over 20k queries: cache lookup, URL parse and JSON encode do the work and the index is nearly idle",
		Hot:      true,
		Distinct: 20_000, HitProb: 0.7, MaxExtraWords: 3, LongQueryProb: 0.02,
		OpenRate: 3000,
	},
	{
		Name: "elastic-fanout", Ads: fullAds,
		Why:        "the cold stream through adserve -elastic 2: shard fan-out, frame codec and metadata fetch dominate, no result cache",
		ServerArgs: []string{"-elastic", "2"}, Remote: true,
		Distinct: 300_000, HitProb: 0.1, MaxExtraWords: 6, LongQueryProb: 0.5,
		OpenRate: 2000,
	},
	{
		Name: "http-churn", Ads: churnAds,
		Why:        "hot reads beside a steady insert/delete writer on a durable index: every write empties the cache and folds steal a core",
		ServerArgs: []string{"-wal-sync", "none", "-snapshot-every", "500"}, Durable: true,
		Hot:      true,
		Distinct: 20_000, HitProb: 0.7, MaxExtraWords: 3, LongQueryProb: 0.02,
		OpenRate: 1000, WriteRate: 48,
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// mutation is one write of the churn workload: an insert of a fresh ad
// or a delete of an ad from the initial corpus, alternating.
type mutation struct {
	Insert bool
	Ad     corpus.Ad
}

// inputs is everything a run derives from (spec, seed): the corpus, the
// distinct queries, the order they are sent in, and the write sequence.
type inputs struct {
	spec    spec
	seed    int64
	corpus  *corpus.Corpus
	queries []string // distinct query texts
	order   []int32  // stream: indexes into queries, in send order
	muts    []mutation
}

// query returns the i-th query of the stream, wrapping at the end. A cold
// stream that wraps still misses the cache: its cycle (Distinct) exceeds
// the server's 65536-entry result cache.
func (in *inputs) query(i int) string { return in.queries[in.order[i%len(in.order)]] }

func generate(sp spec, seed int64) *inputs {
	in := &inputs{spec: sp, seed: seed}
	in.corpus = corpus.Generate(corpus.GenOptions{NumAds: sp.Ads, Seed: seed})
	wl := workload.Generate(in.corpus, workload.GenOptions{
		NumQueries:    sp.Distinct,
		HitProb:       sp.HitProb,
		MaxExtraWords: sp.MaxExtraWords,
		LongQueryProb: sp.LongQueryProb,
		ZipfS:         hotZipfS,
		MaxFreq:       hotMaxFreq,
		Seed:          seed + 1,
	})
	in.queries = make([]string, len(wl.Queries))
	index := make(map[*workload.Query]int32, len(wl.Queries))
	for i := range wl.Queries {
		// The index cuts a query above MaxQueryWords (12) down to its
		// rarest words and may then miss matches; such an answer would be
		// a failed operation, so the streams stay within the bound.
		in.queries[i] = strings.Join(wl.Queries[i].Words[:min(len(wl.Queries[i].Words), maxQueryWords)], " ")
		index[&wl.Queries[i]] = int32(i)
	}
	if sp.Hot {
		stream := wl.Stream(streamLen, seed+2)
		in.order = make([]int32, len(stream))
		for i, q := range stream {
			in.order[i] = index[q]
		}
	} else {
		in.order = make([]int32, len(in.queries))
		for i := range in.order {
			in.order[i] = int32(i)
		}
	}
	if sp.WriteRate > 0 {
		in.muts = generateMutations(in.corpus, seed+3)
	}
	return in
}

// generateMutations builds the churn write sequence: fresh ads drawn from
// the same vocabulary and length distribution as the corpus (IDs above
// it), alternating with deletes of distinct initial ads.
func generateMutations(c *corpus.Corpus, seed int64) []mutation {
	const pairs = 4096 // 8192 mutations: nearly three minutes of writes at 48/s
	n := len(c.Ads)
	fresh := corpus.Generate(corpus.GenOptions{
		NumAds: pairs, VocabSize: max(n/10, 1000), Seed: seed,
	})
	rng := rand.New(rand.NewSource(seed))
	victims := rng.Perm(n)[:min(pairs, n/2)]
	muts := make([]mutation, 0, 2*pairs)
	for i := 0; i < pairs; i++ {
		ad := fresh.Ads[i]
		ad.ID = uint64(n + 1 + i)
		muts = append(muts, mutation{Insert: true, Ad: ad})
		muts = append(muts, mutation{Ad: c.Ads[victims[i%len(victims)]]})
	}
	return muts
}

func writeCorpus(c *corpus.Corpus, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := c.Write(w); err != nil {
		f.Close()
		return fmt.Errorf("write corpus %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// searchRequest is the full HTTP/1.1 request for one query, built once
// so the send path is a single Write.
func searchRequest(q string) []byte {
	return []byte("GET /search?q=" + url.QueryEscape(q) + " HTTP/1.1\r\nHost: adserve\r\n\r\n")
}

func postRequest(path string, body []byte) []byte {
	return []byte(fmt.Sprintf("POST %s HTTP/1.1\r\nHost: adserve\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		path, len(body), body))
}

// mutationRequest renders m as the /insert or /delete request the server
// accepts.
func mutationRequest(m mutation) []byte {
	if m.Insert {
		body, _ := json.Marshal(struct {
			ID     uint64      `json:"id"`
			Phrase string      `json:"phrase"`
			Meta   corpus.Meta `json:"meta"`
		}{m.Ad.ID, m.Ad.Phrase, m.Ad.Meta}) // plain strings and integers: cannot fail
		return postRequest("/insert", body)
	}
	body, _ := json.Marshal(struct {
		ID     uint64 `json:"id"`
		Phrase string `json:"phrase"`
	}{m.Ad.ID, m.Ad.Phrase})
	return postRequest("/delete", body)
}
