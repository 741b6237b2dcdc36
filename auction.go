package adindex

import (
	"sort"

	"adindex/internal/textnorm"
)

// Selection configures the secondary filtering and ranking applied after
// broad-match retrieval (the auction-side criteria of the paper's
// introduction: bid price, keyword exclusion, click-through rate,
// previously shown ads). None of these are monotone in per-keyword scores,
// which is why they run after retrieval rather than inside the index.
type Selection struct {
	// MinBidMicros drops ads bidding below this floor.
	MinBidMicros int64
	// ExcludeShown drops ads whose IDs appear in this set (e.g. already
	// displayed to this user).
	ExcludeShown map[uint64]bool
	// MaxResults caps the number of returned ads (0 = no cap).
	MaxResults int
	// RankByExpectedRevenue orders by BidMicros·ClickRate instead of
	// BidMicros alone.
	RankByExpectedRevenue bool
}

// SelectAds applies exclusion keywords, bid floors, shown-ad suppression,
// and ranking to broad-match results for the given query, returning the
// auction winners in rank order.
func SelectAds(query string, matches []Ad, sel Selection) []Ad {
	return selectWinners(query, matches, sel, func(a *Ad) (*Ad, MatchInfo) { return a, MatchInfo{} })
}

// RankDiscountPercent is the bid multiplier (in percent) an approximate
// match earns in the auction: an advertiser bid on the exact keyword set,
// so results reached through a rewrite are charged toward the ranking at
// a discount growing with the rewrite's distance from the query (the
// broad-match pricing rationale: the further the match, the less the
// click is worth to the bidder). Exact matches keep full value, synonym
// substitutions 90%, one-edit spelling fixes 75%, anything farther 50%.
func RankDiscountPercent(info MatchInfo) int64 {
	switch info.Type {
	case MatchSynonym:
		return 90
	case MatchFuzzy:
		if info.Distance <= 1 {
			return 75
		}
		return 50
	default:
		return 100
	}
}

// SelectMatches is SelectAds for approximate broad-match results: the
// same exclusion, floor, and shown-ad filters apply, but each ad's rank
// score is discounted by RankDiscountPercent of its match info before
// ordering. The bid floor is checked against the undiscounted bid (the
// advertiser's real commitment); ties break by ID, then by penalty so an
// exact duplicate outranks its rewritten twin.
func SelectMatches(query string, matches []Match, sel Selection) []Match {
	return selectWinners(query, matches, sel, func(m *Match) (*Ad, MatchInfo) { return &m.Ad, m.Info })
}

// selectWinners is SelectAds and SelectMatches over anything that views
// as an ad and how it matched (an exact match for a bare Ad): filter by
// bid floor, shown IDs and exclusion keywords, order by discounted score
// descending with ID then penalty as the tiebreaks, cap at MaxResults.
func selectWinners[T any](query string, items []T, sel Selection, view func(*T) (*Ad, MatchInfo)) []T {
	qWords := textnorm.WordSet(query)
	out := make([]T, 0, len(items))
	for i := range items {
		ad, _ := view(&items[i])
		if ad.Meta.BidMicros >= sel.MinBidMicros && !sel.ExcludeShown[ad.ID] && !excludedByKeyword(ad, qWords) {
			out = append(out, items[i])
		}
	}
	score := func(ad *Ad, info MatchInfo) int64 {
		s := ad.Meta.BidMicros
		if sel.RankByExpectedRevenue {
			s *= int64(ad.Meta.ClickRate)
		}
		if pct := RankDiscountPercent(info); pct != 100 {
			s = s * pct / 100
		}
		return s
	}
	sort.SliceStable(out, func(i, j int) bool {
		ai, ii := view(&out[i])
		aj, ij := view(&out[j])
		if si, sj := score(ai, ii), score(aj, ij); si != sj {
			return si > sj
		}
		if ai.ID != aj.ID {
			return ai.ID < aj.ID
		}
		return ii.Penalty() < ij.Penalty()
	})
	if sel.MaxResults > 0 && len(out) > sel.MaxResults {
		out = out[:sel.MaxResults]
	}
	return out
}

// excludedByKeyword reports whether any of the ad's negative keywords
// occurs in the query, tokenizing the exclusions here: an ad is asked once,
// and only if it passed the bid floor.
func excludedByKeyword(ad *Ad, qWords []string) bool {
	for _, ws := range ad.Meta.ExclusionSets() {
		for _, w := range ws {
			if containsWord(qWords, w) {
				return true
			}
		}
	}
	return false
}

func containsWord(sorted []string, w string) bool {
	i := sort.SearchStrings(sorted, w)
	return i < len(sorted) && sorted[i] == w
}
