// Package textnorm provides the text normalization used by the broad-match
// index: tokenization of bid phrases and queries, case folding, and the
// duplicate-occurrence folding described in Section III-B of the paper
// ("Talk Talk" becomes the single token "talk_talk" so that repeated words
// must occur with the same multiplicity in both bid and query).
package textnorm

import (
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Tokenize splits s into lowercase word tokens. A token is a maximal run of
// letters, digits, and apostrophes; every other rune is a separator. The
// original token order is preserved (needed for phrase match).
func Tokenize(s string) []string {
	tokens := AppendTokens(nil, s)
	if len(tokens) == 0 {
		return nil
	}
	return tokens
}

// AppendTokens appends the lowercase tokens of s to buf and returns the
// extended slice. When s contains no uppercase and no non-ASCII runes the
// tokens slice s directly and no intermediate string is allocated, which is
// the common case on the query hot path (callers hand in a pooled buffer).
func AppendTokens(buf []string, s string) []string {
	if s == "" {
		return buf
	}
	lower := s
	if mayHaveUpper(s) {
		lower = strings.ToLower(s)
	}
	start := -1
	for i, r := range lower {
		if isWordRune(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			buf = append(buf, lower[start:i])
			start = -1
		}
	}
	if start >= 0 {
		buf = append(buf, lower[start:])
	}
	return buf
}

// mayHaveUpper reports whether lowercasing s could change it. Non-ASCII
// bytes conservatively report true and defer to strings.ToLower.
func mayHaveUpper(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' || c >= utf8.RuneSelf {
			return true
		}
	}
	return false
}

func isWordRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '\''
}

// FoldDuplicates implements the multiple-occurrence semantics of the paper:
// a word occurring k>1 times is replaced by a single synthetic token formed
// by joining the k occurrences with underscores ("talk talk" -> "talk_talk").
// The relative order of first occurrences is preserved. The result contains
// each distinct token exactly once.
func FoldDuplicates(tokens []string) []string {
	if len(tokens) == 0 {
		return nil
	}
	counts := make(map[string]int, len(tokens))
	for _, t := range tokens {
		counts[t]++
	}
	out := make([]string, 0, len(counts))
	seen := make(map[string]bool, len(counts))
	for _, t := range tokens {
		if seen[t] {
			continue
		}
		seen[t] = true
		if n := counts[t]; n > 1 {
			out = append(out, foldedToken(t, n))
		} else {
			out = append(out, t)
		}
	}
	return out
}

// Folded returns FoldDuplicates(tokens), which is tokens itself when no
// token repeats: a short sequence without repeats, the common case,
// allocates nothing.
func Folded(tokens []string) []string {
	if len(tokens) > 16 {
		return FoldDuplicates(tokens)
	}
	for i := range tokens {
		for j := 0; j < i; j++ {
			if tokens[i] == tokens[j] {
				return FoldDuplicates(tokens)
			}
		}
	}
	return tokens
}

func foldedToken(t string, n int) string {
	var b strings.Builder
	b.Grow(len(t)*n + n - 1)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte('_')
		}
		b.WriteString(t)
	}
	return b.String()
}

// WordSet converts a raw phrase or query string into its canonical word set:
// tokenized, duplicate-folded, sorted, and deduplicated. Broad-match
// processing operates exclusively on canonical word sets.
func WordSet(s string) []string {
	out := AppendWordSet(nil, s)
	if len(out) == 0 {
		return nil
	}
	return out
}

// AppendWordSet appends the canonical word set of s to buf and returns the
// extended slice. It computes exactly WordSet(s) but reuses buf for every
// intermediate step: tokens are appended in place, then sorted, folded, and
// deduplicated within the same backing array. With a pooled buffer and
// already-lowercase ASCII input the whole conversion performs zero
// allocations (folded duplicate tokens, which are rare, are the only
// exception).
func AppendWordSet(buf []string, s string) []string {
	mark := len(buf)
	return FoldTokens(AppendTokens(buf, s), mark)
}

// FoldTokens turns the tokens buf[mark:] into their canonical word set in
// place (sorted, duplicate-folded, deduplicated) and returns buf cut to
// it: the second half of AppendWordSet, for callers that already hold the
// token sequence.
func FoldTokens(buf []string, mark int) []string {
	toks := buf[mark:]
	if len(toks) == 0 {
		return buf[:mark]
	}
	sort.Strings(toks)
	// Fold runs of equal tokens (the multiple-occurrence semantics of
	// FoldDuplicates): on a sorted slice every duplicate group is a run, so
	// run-compression is equivalent to FoldDuplicates followed by
	// CanonicalSet's sort.
	w := 0
	folded := false
	for r := 0; r < len(toks); {
		run := r + 1
		for run < len(toks) && toks[run] == toks[r] {
			run++
		}
		if n := run - r; n > 1 {
			toks[w] = foldedToken(toks[r], n)
			folded = true
		} else {
			toks[w] = toks[r]
		}
		w++
		r = run
	}
	toks = toks[:w]
	if folded {
		// Folded tokens ("talk_talk") can sort differently from the tokens
		// they replace, and can collide with literal tokens already
		// present; restore sortedness and uniqueness.
		sort.Strings(toks)
		w = 0
		for r := 0; r < len(toks); r++ {
			if r == 0 || toks[r] != toks[r-1] {
				toks[w] = toks[r]
				w++
			}
		}
		toks = toks[:w]
	}
	return buf[:mark+len(toks)]
}

// CanonicalSet sorts a copy of words and removes duplicates, producing the
// canonical representation of a word set.
func CanonicalSet(words []string) []string {
	if len(words) == 0 {
		return nil
	}
	out := make([]string, len(words))
	copy(out, words)
	sort.Strings(out)
	j := 0
	for i := 1; i < len(out); i++ {
		if out[i] != out[j] {
			j++
			out[j] = out[i]
		}
	}
	return out[:j+1]
}

// IsSubset reports whether every element of sub occurs in super. Both
// arguments must be canonical (sorted, deduplicated) word sets.
func IsSubset(sub, super []string) bool {
	if len(sub) > len(super) {
		return false
	}
	i := 0
	for _, w := range sub {
		for i < len(super) && super[i] < w {
			i++
		}
		if i >= len(super) || super[i] != w {
			return false
		}
		i++
	}
	return true
}

// ContainsContiguous reports whether needle occurs in haystack as a
// contiguous token subsequence (the phrase-match containment test).
func ContainsContiguous(haystack, needle []string) bool {
	if len(needle) == 0 || len(needle) > len(haystack) {
		return len(needle) == 0
	}
outer:
	for i := 0; i+len(needle) <= len(haystack); i++ {
		for j := range needle {
			if haystack[i+j] != needle[j] {
				continue outer
			}
		}
		return true
	}
	return false
}

// SetKey joins a canonical word set into a single string key usable as a Go
// map key. The unit separator (0x1f) cannot occur inside tokens.
func SetKey(words []string) string {
	return strings.Join(words, "\x1f")
}

// AppendSetKey appends SetKey(words) to dst, for callers that build keys in
// a reused buffer.
func AppendSetKey(dst []byte, words []string) []byte {
	for i, w := range words {
		if i > 0 {
			dst = append(dst, '\x1f')
		}
		dst = append(dst, w...)
	}
	return dst
}

// SplitKey is the inverse of SetKey.
func SplitKey(key string) []string {
	if key == "" {
		return nil
	}
	return strings.Split(key, "\x1f")
}
