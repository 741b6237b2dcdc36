package optimize

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"

	"adindex/internal/core"
	"adindex/internal/corpus"
	"adindex/internal/textnorm"
)

// FuzzReadMapping feeds ReadMapping bytes this process did not write, the
// way adserve -mapping does. It never panics; what it refuses it refuses
// with ErrMalformedMapping (or the scanner's error for a line over its
// buffer); and what it accepts goes where an accepted mapping goes — into
// core.NewWithMapping over a corpus holding the mapped word sets — which
// either builds an index that passes its invariants or refuses the mapping
// with an error of its own.
func FuzzReadMapping(f *testing.F) {
	f.Add([]byte("cheap used books\tbooks cheap\nused books\tbooks\n"))
	f.Add([]byte("a b c d e f g h i j k l\ta b c d e f g h i j k\n")) // a locator over MaxWords
	f.Add([]byte("b a\ta\n\n\r\nno tab here\n"))
	f.Add([]byte("a b\tz\n"))
	f.Add([]byte("\tx\n"))
	f.Add([]byte("Cheap BOOKS!\tcheap\n")) // words the tokenizer would fold or split
	f.Add([]byte("a\x1fb c\ta\x1fb\n"))    // the key separator inside a word
	f.Add([]byte("x y\tx\nx y\ty\n"))      // the same set twice
	f.Add(append(bytes.Repeat([]byte("w "), 600_000), "\tw\n"...))
	f.Fuzz(func(t *testing.T, data []byte) {
		mapping, err := ReadMapping(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrMalformedMapping) && !errors.Is(err, bufio.ErrTooLong) {
				t.Fatalf("untyped refusal: %v", err)
			}
			return
		}
		// One ad per mapped set, phrased as the set's words, and one of a
		// set the mapping does not know.
		ads := []corpus.Ad{corpus.NewAd(1, "unmapped phrase", corpus.Meta{})}
		for key, loc := range mapping {
			if len(loc) == 0 {
				t.Fatalf("accepted an empty locator for %q", key)
			}
			ads = append(ads, corpus.NewAd(uint64(len(ads)+1), strings.Join(textnorm.SplitKey(key), " "), corpus.Meta{}))
		}
		ix, err := core.NewWithMapping(ads, mapping, core.Options{})
		if err != nil {
			return // refused: a locator over MaxWords, or a set whose words are not what the tokenizer makes of them
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("accepted mapping built a broken index: %v", err)
		}
	})
}
