package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"

	"adindex/internal/corpus"
	"adindex/internal/multiserver"
	"adindex/internal/textnorm"
)

// oracle answers broad match by definition — every ad whose word set is
// a subset of the query's (textnorm.IsSubset) — sharing nothing with the
// index under test. To keep a 200k-ad scan per query affordable it
// buckets ads by their smallest word: an ad can only match a query that
// contains that word, so the buckets of the query's words hold every
// candidate, and each candidate is then checked in full.
type oracle struct {
	ads     []corpus.Ad
	byFirst map[string][]int32 // smallest word → indexes into ads
	deleted map[uint64]bool
}

func newOracle(ads []corpus.Ad) *oracle {
	o := &oracle{byFirst: make(map[string][]int32), deleted: make(map[uint64]bool)}
	for i := range ads {
		o.insert(ads[i])
	}
	return o
}

func (o *oracle) insert(ad corpus.Ad) {
	if len(ad.Words) == 0 {
		return // matches nothing
	}
	o.ads = append(o.ads, ad)
	o.byFirst[ad.Words[0]] = append(o.byFirst[ad.Words[0]], int32(len(o.ads)-1))
}

// remove drops the ad with this ID (IDs are unique in generated inputs).
func (o *oracle) remove(id uint64) { o.deleted[id] = true }

func (o *oracle) live() int { return len(o.ads) - len(o.deleted) }

// match returns the ads broad-matching query, ordered by ID.
func (o *oracle) match(query string) []*corpus.Ad {
	words := textnorm.WordSet(query)
	var out []*corpus.Ad
	for _, w := range words {
		for _, i := range o.byFirst[w] {
			ad := &o.ads[i]
			if !o.deleted[ad.ID] && textnorm.IsSubset(ad.Words, words) {
				out = append(out, ad)
			}
		}
	}
	slices.SortFunc(out, func(a, b *corpus.Ad) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// searchReply is the part of adserve's /search response the oracle
// compares: full ads from a local index, IDs + metadata from a remote
// (sharded) deployment.
type searchReply struct {
	Matched   int                  `json:"matched"`
	Ads       []corpus.Ad          `json:"ads"`
	IDs       []uint64             `json:"ids"`
	Meta      []multiserver.AdMeta `json:"meta"`
	Degraded  bool                 `json:"degraded"`
	Truncated bool                 `json:"truncated"`
}

// check compares one reply body against the oracle and describes the
// first difference, or returns "" when they agree.
func (o *oracle) check(query string, body []byte, remote bool) string {
	var got searchReply
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Sprintf("undecodable reply: %v", err)
	}
	want := o.match(query)
	if got.Degraded || got.Truncated {
		return "reply flagged degraded or truncated"
	}
	if got.Matched != len(want) {
		return fmt.Sprintf("matched %d ads, oracle has %d", got.Matched, len(want))
	}
	if remote {
		if len(got.IDs) != len(want) || len(got.Meta) != len(want) {
			return fmt.Sprintf("%d ids / %d meta for %d oracle ads", len(got.IDs), len(got.Meta), len(want))
		}
		for i, w := range want {
			m := got.Meta[i]
			if got.IDs[i] != w.ID || m.BidMicros != w.Meta.BidMicros || m.ClickRate != w.Meta.ClickRate {
				return fmt.Sprintf("result %d: got id %d %+v, oracle id %d %+v", i, got.IDs[i], m, w.ID, w.Meta)
			}
		}
		return ""
	}
	if len(got.Ads) != len(want) {
		return fmt.Sprintf("%d ads for %d oracle ads", len(got.Ads), len(want))
	}
	for i, w := range want {
		g := &got.Ads[i]
		if g.ID != w.ID || g.Phrase != w.Phrase || g.Meta.CampaignID != w.Meta.CampaignID ||
			g.Meta.BidMicros != w.Meta.BidMicros || g.Meta.ClickRate != w.Meta.ClickRate ||
			!slices.Equal(g.Meta.Exclusions, w.Meta.Exclusions) {
			return fmt.Sprintf("result %d: got %+v, oracle %+v", i, *g, *w)
		}
	}
	return ""
}

// oracleResult is the outcome of the post-run replay.
type oracleResult struct {
	Checked    int      `json:"checked"`
	Mismatches int      `json:"mismatches"`
	First      []string `json:"first_mismatches,omitempty"`
}

// replay re-issues oracleSize seeded sample queries against the
// quiesced server and compares every answer.
func (o *oracle) replay(a *adserve, in *inputs, n int) (oracleResult, error) {
	c, err := dial(a.addr)
	if err != nil {
		return oracleResult{}, err
	}
	defer c.close()
	rng := rand.New(rand.NewSource(in.seed + 4))
	var res oracleResult
	for i := 0; i < n; i++ {
		q := in.query(rng.Intn(len(in.order)))
		status, err := c.do(searchRequest(q))
		res.Checked++
		diff := ""
		switch {
		case err != nil:
			diff = err.Error()
		case status != 200:
			diff = fmt.Sprintf("status %d", status)
		default:
			diff = o.check(q, c.body.Bytes(), in.spec.Remote)
		}
		if diff != "" {
			res.Mismatches++
			if len(res.First) < 3 {
				res.First = append(res.First, fmt.Sprintf("%q: %s", q, diff))
			}
		}
	}
	return res, nil
}
