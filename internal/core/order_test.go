package core

import (
	"cmp"
	"encoding/json"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"adindex/internal/corpus"
	"adindex/internal/textnorm"
	"adindex/internal/workload"
)

// TestOrderByIDMergesRuns: up to 64 ID-ordered runs, with equal IDs within
// and across runs, come out ID-ordered, and records of one ID in the order
// they were appended: what a stable sort gives.
func TestOrderByIDMergesRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf []Ref
	for trial := 0; trial < 3000; trial++ {
		var ids []uint64
		var m []Ref
		runs := 1 + rng.Intn(64)
		if trial%100 == 0 {
			runs = 64
		}
		for range runs {
			id := uint64(rng.Intn(40))
			for range 1 + rng.Intn(6) {
				id += uint64(rng.Intn(3)) // equal IDs inside a run too
				ids = append(ids, id)
				m = append(m, Ref(len(ids)-1)) // a ref is its append position
			}
		}
		want := slices.Clone(m)
		slices.SortStableFunc(want, func(a, b Ref) int { return cmp.Compare(ids[a], ids[b]) })
		buf = orderByID(ids, m, buf)
		if !slices.Equal(m, want) {
			t.Fatalf("trial %d, %d runs: ordered %v, want %v", trial, runs, m, want)
		}
	}
	// 64 runs of one record each, in falling ID order: six merge passes.
	ids := make([]uint64, 64)
	m := make([]Ref, 64)
	for i := range ids {
		ids[i], m[i] = uint64(64-i), Ref(i)
	}
	orderByID(ids, m, nil)
	for i := range m {
		if m[i] != Ref(63-i) {
			t.Fatalf("falling runs: position %d holds %d, want %d", i, m[i], 63-i)
		}
	}
}

// scanOrder is appendSubsetRefs without the ordering: the matches of q in
// the order the node scans append them.
func scanOrder(ix *Index, q []string, sc *Scratch, dst []Ref) []Ref {
	ix.prepare(sc, q)
	if len(sc.q) == 0 {
		return dst
	}
	visited := ix.appendCandidateNodes(nil, sc, nil)
	sc.qsig = ix.voc.signature(sc.qids)
	for _, v := range visited {
		dst = ix.scanNode(ix.nodes[v-1], nil, sc, dst, nil)
	}
	return dst
}

// BenchmarkOrderHotStream orders the matches of the hot benchmark stream
// (power-law queries over a 200k-ad corpus, cut to 12 words) as the scans
// appended them: "merge" is orderByID, "sort" a comparator sort by ID for
// reference. It reports the matches and the ID-ordered runs per query.
func BenchmarkOrderHotStream(b *testing.B) {
	corp := corpus.Generate(corpus.GenOptions{NumAds: 200_000, Seed: 1})
	ix := New(corp.Ads, Options{})
	wl := workload.Generate(corp, workload.GenOptions{NumQueries: 20_000, ZipfS: 1, MaxFreq: 200, Seed: 2})
	var sc Scratch
	scanned := map[*workload.Query][]Ref{}
	stream := wl.Stream(1<<16, 3)
	var matches, runs int
	for _, q := range stream {
		m, ok := scanned[q]
		if !ok {
			words := q.Words[:min(len(q.Words), 12)]
			m = scanOrder(ix, textnorm.WordSet(strings.Join(words, " ")), &sc, nil)
			scanned[q] = m
		}
		matches += len(m)
		for lo := 0; lo < len(m); runs++ {
			lo = runEnd(ix.ids, m, lo)
		}
	}
	for _, bench := range []struct {
		name  string
		order func(m, buf []Ref) []Ref
	}{
		{"merge", func(m, buf []Ref) []Ref { return orderByID(ix.ids, m, buf) }},
		{"sort", func(m, buf []Ref) []Ref {
			slices.SortFunc(m, func(a, b Ref) int { return cmp.Compare(ix.ids[a], ix.ids[b]) })
			return buf
		}},
	} {
		b.Run(bench.name, func(b *testing.B) {
			var work, buf []Ref
			for i := 0; i < b.N; i++ {
				work = append(work[:0], scanned[stream[i%len(stream)]]...)
				buf = bench.order(work, buf)
			}
			b.ReportMetric(float64(matches)/float64(len(stream)), "matches/query")
			b.ReportMetric(float64(runs)/float64(len(stream)), "runs/query")
		})
	}
}

// FuzzAppendRecordJSON: a record encoded from the columns is the JSON of
// the ad AppendAd copies out of it, byte for byte, whatever its phrase,
// words and exclusions hold — quotes, backslashes, <, & and control bytes
// to escape, invalid UTF-8 to replace, U+2028 — and a record without words
// or exclusions encodes them as null.
func FuzzAppendRecordJSON(f *testing.F) {
	f.Add(`say "hi" <b>&amp;`, "a\\b c\x01d e<f>&g", "\u2028x\xff|\"q\"|", uint64(7), int64(-5))
	f.Add("plain phrase", "", "", uint64(0), int64(0))
	f.Add("\xc3\x28 \u2029\t\n", "\u00e9t\u00e9 caf\xe9 '", "a||b", uint64(1<<63), int64(1<<62))
	f.Fuzz(func(t *testing.T, phrase, words, exclusions string, id uint64, bid int64) {
		if len(phrase) > 200 || len(words) > 200 || len(exclusions) > 200 {
			return
		}
		var extra []string
		for _, w := range strings.Fields(words) {
			if !strings.Contains(w, "\x1f") { // the set key's separator
				extra = append(extra, w)
			}
		}
		var excl []string
		if exclusions != "" {
			excl = strings.Split(exclusions, "|")
		}
		meta := corpus.Meta{CampaignID: uint32(id), BidMicros: bid, ClickRate: uint16(id >> 7), Exclusions: excl}
		ad := corpus.NewAd(id, phrase, meta)
		ad.Words = textnorm.CanonicalSet(append(ad.Words, extra...))
		bare := corpus.Ad{ID: id + 1, Phrase: "!!"} // no words, no exclusions
		ix := New([]corpus.Ad{ad, bare}, Options{})
		check := func() {
			t.Helper()
			var ads []corpus.Ad
			var strs []string
			for _, nd := range ix.nodes {
				for r := nd.off; r < nd.off+nd.n; r++ {
					ads, strs = ix.AppendAd(ads[:0], strs[:0], Ref(r))
					want := ads[0].AppendJSON(nil)
					got := ix.AppendRecordJSON(nil, Ref(r))
					if string(got) != string(want) {
						t.Fatalf("record %d:\n got %s\nwant %s", r, got, want)
					}
					if !json.Valid(got) || !utf8.Valid(got) {
						t.Fatalf("record %d: invalid JSON %q", r, got)
					}
				}
			}
		}
		check()
		// A word numbered after the first encode is quoted as it is written.
		ad.ID, ad.Words = id+2, textnorm.CanonicalSet(append(ad.Words, `new"<word>`))
		ix.Insert(ad)
		check()
	})
}
