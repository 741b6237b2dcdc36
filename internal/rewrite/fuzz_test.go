package rewrite

import (
	"bufio"
	"bytes"
	"errors"
	"slices"
	"sort"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzLevenshteinWalk cross-checks the trie's bounded walk against the
// naive DP over the same word list: identical word/distance sets,
// lexicographic visit order, and a distance-0 visit whenever the query is
// itself a stored word (even at maxDist 0).
func FuzzLevenshteinWalk(f *testing.F) {
	f.Add("shoe shoes shop ship shore", "shoos", 1)
	f.Add("sponsored search auction bid", "auctoin", 2)
	f.Add("a ab abc abcd", "abz", 0)
	f.Add("", "anything", 2)
	f.Fuzz(func(t *testing.T, wordBlob, query string, maxDist int) {
		if maxDist < 0 || maxDist > 3 {
			return
		}
		if !utf8.ValidString(wordBlob) || !utf8.ValidString(query) {
			return
		}
		if utf8.RuneCountInString(query) > 24 {
			return
		}
		var words []string
		seen := make(map[string]bool)
		for _, w := range strings.Fields(wordBlob) {
			if utf8.RuneCountInString(w) > 24 {
				return
			}
			if !seen[w] {
				seen[w] = true
				words = append(words, w)
			}
			if len(words) >= 64 {
				break
			}
		}
		tr := NewTrie(words)
		want := make(map[string]int)
		for _, w := range words {
			if d := Distance(query, w); d <= maxDist {
				want[w] = d
			}
		}
		got := make(map[string]int)
		var order []string
		tr.Walk(query, maxDist, func(w string, d int) {
			if _, dup := got[w]; dup {
				t.Fatalf("word %q visited twice", w)
			}
			got[w] = d
			order = append(order, w)
		})
		if !sort.StringsAreSorted(order) {
			t.Fatalf("visit order not lexicographic: %v", order)
		}
		if len(got) != len(want) {
			t.Fatalf("walk visited %d words, naive DP found %d (got %v, want %v)", len(got), len(want), got, want)
		}
		for w, d := range want {
			if gd, ok := got[w]; !ok || gd != d {
				t.Fatalf("word %q: walk %d (present=%v), naive %d", w, gd, ok, d)
			}
		}
		if seen[query] {
			if d, ok := got[query]; !ok || d != 0 {
				t.Fatalf("stored query %q not visited at distance 0 (maxDist %d)", query, maxDist)
			}
		}
	})
}

// FuzzReadClasses feeds ReadClasses bytes this process did not write, the
// way adserve -synonyms does. It never panics; what it refuses it refuses
// with ErrMalformedClasses (or the scanner's error for a line over its
// buffer); and what it accepts survives WriteClasses and a second read as
// the same table: the same bytes, and the same class around every word.
func FuzzReadClasses(f *testing.F) {
	f.Add([]byte("# synonyms\nshoe\tsneaker\ttrainer\n\ncouch\tsofa\r\n"))
	f.Add([]byte("single\n"))
	f.Add([]byte("a\tb\nb\tc\n"))           // a word in two classes
	f.Add([]byte("Shoes!\tSHOES\tshoes\n")) // one word three ways
	f.Add([]byte("two words\tone\n"))
	f.Add([]byte("\t\t \t\n#\ta\tb\n"))
	f.Add([]byte("a\x1fb\tc\n"))
	f.Add(append(bytes.Repeat([]byte("w"), 1<<20), "\tv\n"...))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadClasses(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrMalformedClasses) && !errors.Is(err, bufio.ErrTooLong) {
				t.Fatalf("untyped refusal: %v", err)
			}
			return
		}
		var first bytes.Buffer
		if err := WriteClasses(&first, c); err != nil {
			t.Fatal(err)
		}
		c2, err := ReadClasses(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("ReadClasses refuses what WriteClasses wrote (%q): %v", first.Bytes(), err)
		}
		var second bytes.Buffer
		if err := WriteClasses(&second, c2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip rewrote the file: %q -> %q", first.Bytes(), second.Bytes())
		}
		if c2.NumClasses() != c.NumClasses() || c2.NumWords() != c.NumWords() {
			t.Fatalf("round trip changed the table: %d classes of %d words -> %d of %d",
				c.NumClasses(), c.NumWords(), c2.NumClasses(), c2.NumWords())
		}
		for w := range c.byWord {
			if c2.Canonical(w) != c.Canonical(w) || !slices.Equal(c2.Alternates(w), c.Alternates(w)) {
				t.Fatalf("round trip changed the class of %q", w)
			}
		}
	})
}
