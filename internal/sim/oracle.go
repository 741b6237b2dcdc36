package sim

import (
	"sort"

	"adindex/internal/corpus"
	"adindex/internal/textnorm"
)

// model is the brute-force oracle: the live ads as a flat multiset, with
// broad match as a linear subset scan. It is deliberately trivial — no
// hashing, no locators, no snapshots — so any divergence from the real
// stack implicates the stack.
type model struct {
	ads []corpus.Ad // live records in insertion order
}

func (m *model) insert(ad corpus.Ad) { m.ads = append(m.ads, ad) }

// remove deletes the most recently inserted record matching (id, word
// set of phrase), mirroring Index.Delete (delta scanned newest-first;
// records sharing an identity are exact copies, so which copy goes is
// unobservable).
func (m *model) remove(id uint64, phrase string) bool {
	key := textnorm.SetKey(textnorm.WordSet(phrase))
	for i := len(m.ads) - 1; i >= 0; i-- {
		if m.ads[i].ID == id && m.ads[i].SetKey() == key {
			m.ads = append(m.ads[:i], m.ads[i+1:]...)
			return true
		}
	}
	return false
}

func (m *model) numAds() int { return len(m.ads) }

// broadMatch returns copies of every live ad with words(P) ⊆ Q, ordered
// by ID (stable for duplicates).
func (m *model) broadMatch(query string) []corpus.Ad {
	q := textnorm.WordSet(query)
	var out []corpus.Ad
	for _, ad := range m.ads {
		if textnorm.IsSubset(ad.Words, q) {
			out = append(out, ad)
		}
	}
	sortAdsByID(out)
	return out
}

// auction independently re-implements the default SelectAds semantics:
// drop ads with a negative keyword occurring in the query, then rank by
// bid descending with ID as the tiebreak.
func (m *model) auction(query string) []corpus.Ad {
	q := textnorm.WordSet(query)
	var out []corpus.Ad
	for _, ad := range m.broadMatch(query) {
		if !exclusionFires(&ad, q) {
			out = append(out, ad)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Meta.BidMicros != out[j].Meta.BidMicros {
			return out[i].Meta.BidMicros > out[j].Meta.BidMicros
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// sortedAds returns the live multiset ordered by ID.
func (m *model) sortedAds() []corpus.Ad {
	out := append([]corpus.Ad(nil), m.ads...)
	sortAdsByID(out)
	return out
}

// exclusionFires reports whether any word of any negative keyword occurs
// in the query word set (linear scans — independent of auction.go's
// binary search).
func exclusionFires(ad *corpus.Ad, qWords []string) bool {
	for _, e := range ad.Meta.Exclusions {
		for _, w := range textnorm.WordSet(e) {
			for _, qw := range qWords {
				if w == qw {
					return true
				}
			}
		}
	}
	return false
}

// mapping builds the deterministic collapse mapping OpApplyMapping
// applies: every distinct live word set is located under its first
// canonical word (a legal locator: non-empty subset, length 1 ≤
// MaxWords). Many sets share a locator word, so application reshuffles
// node layout substantially — which must not change any result.
func (m *model) mapping() map[string][]string {
	mp := make(map[string][]string)
	for i := range m.ads {
		words := m.ads[i].Words
		if len(words) == 0 {
			continue
		}
		key := textnorm.SetKey(words)
		if _, ok := mp[key]; !ok {
			mp[key] = []string{words[0]}
		}
	}
	return mp
}

func sortAdsByID(ads []corpus.Ad) {
	sort.SliceStable(ads, func(i, j int) bool { return ads[i].ID < ads[j].ID })
}
