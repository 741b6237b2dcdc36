package corpus

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"adindex/internal/textnorm"
)

// The on-disk corpus format is line-oriented text, one ad per line:
//
//	id<TAB>campaign<TAB>bidMicros<TAB>clickRate<TAB>exclusions(comma)<TAB>phrase
//
// Human-inspectable, diff-friendly, and trivially streamable; used by
// cmd/adgen and the examples.

// checkPhrase rejects characters that would corrupt the line/field
// structure: a tab would shift every later field, a newline would split
// the record, and a trailing carriage return would be silently eaten by
// the line scanner on re-read.
func checkPhrase(s string) error {
	if strings.ContainsAny(s, "\t\n\r") {
		return fmt.Errorf("contains tab, newline, or carriage return")
	}
	return nil
}

// checkExclusion additionally rejects the comma (the in-field list
// separator) and the empty string (indistinguishable from "no
// exclusions" after a round-trip).
func checkExclusion(s string) error {
	if err := checkPhrase(s); err != nil {
		return err
	}
	if strings.Contains(s, ",") {
		return fmt.Errorf("contains a comma (the exclusion-list separator)")
	}
	if s == "" {
		return fmt.Errorf("is empty")
	}
	return nil
}

func checkAd(a *Ad) error {
	if err := checkPhrase(a.Phrase); err != nil {
		return fmt.Errorf("phrase %q %v", a.Phrase, err)
	}
	for _, e := range a.Meta.Exclusions {
		if err := checkExclusion(e); err != nil {
			return fmt.Errorf("exclusion %q %v", e, err)
		}
	}
	return nil
}

// Write serializes the corpus to w in the text format. Ads whose phrase
// or exclusions would corrupt the format (embedded tabs, newlines,
// carriage returns; commas or empty strings in exclusions) are rejected
// up front — an error here is an ad that could not have round-tripped.
func (c *Corpus) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i := range c.Ads {
		a := &c.Ads[i]
		if err := checkAd(a); err != nil {
			return fmt.Errorf("corpus: ad %d: %v", a.ID, err)
		}
		excl := strings.Join(a.Meta.Exclusions, ",")
		if _, err := fmt.Fprintf(bw, "%d\t%d\t%d\t%d\t%s\t%s\n",
			a.ID, a.Meta.CampaignID, a.Meta.BidMicros, a.Meta.ClickRate, excl, a.Phrase); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxLine is the longest line Read accepts, in bytes without its newline:
// what a bufio.Scanner with a 1 MiB buffer, which Read once was, can hold
// together with the byte that ends the line.
const maxLine = 1<<20 - 1

// minChunk is the least input worth a goroutine of its own.
const minChunk = 1 << 16

// Read parses a corpus from the text format produced by Write. The input
// is read whole and its lines are parsed in newline-aligned chunks side by
// side; the ads, and the error for the first bad line, are those of
// parsing line by line.
func Read(r io.Reader) (*Corpus, error) {
	var text strings.Builder
	_, readErr := io.Copy(&text, r)
	// Like a line scanner, parse what did arrive before reporting that the
	// rest did not: a malformed line comes before the failed read.
	c, err := parse(text.String(), min(runtime.GOMAXPROCS(0), text.Len()/minChunk+1))
	if err == nil && readErr != nil {
		err = fmt.Errorf("corpus: read: %w", readErr)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// parse parses text in up to chunks pieces, each cut after a newline and
// parsed into its own stretch of one slice, a slot per line.
func parse(text string, chunks int) (*Corpus, error) {
	type piece struct {
		text      string
		firstLine int
		ads       []Ad
		err       error
	}
	var pieces []piece
	lines := 0
	for left := chunks; len(text) > 0; left-- {
		cut := len(text)
		if left > 1 {
			if nl := strings.IndexByte(text[cut/left:], '\n'); nl >= 0 {
				cut = cut/left + nl + 1
			}
		}
		pieces = append(pieces, piece{text: text[:cut], firstLine: lines + 1})
		lines += strings.Count(text[:cut], "\n")
		text = text[cut:]
	}
	all := make([]Ad, lines+1) // the last line may lack its newline
	var wg sync.WaitGroup
	for i := range pieces {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &pieces[i]
			p.ads, p.err = parseLines(all[p.firstLine-1:p.firstLine-1], p.text, p.firstLine)
		}()
	}
	wg.Wait()
	// Close the gaps blank lines left; the first bad line is the first bad
	// piece's.
	n := 0
	for i := range pieces {
		if pieces[i].err != nil {
			return nil, pieces[i].err
		}
		if n != pieces[i].firstLine-1 {
			copy(all[n:], pieces[i].ads)
		}
		n += len(pieces[i].ads)
	}
	if n == 0 {
		return &Corpus{}, nil
	}
	return &Corpus{Ads: all[:n]}, nil
}

// parseLines appends the ads of text's lines, the first of which is line
// lineNo of the input, to ads, up to the first bad line. The ads' word sets
// are carved back to back out of one slice (a slot per space-separated
// word, one allocation instead of several per line), each capped at its
// length.
func parseLines(ads []Ad, text string, lineNo int) ([]Ad, error) {
	words := make([]string, 0, strings.Count(text, " ")+strings.Count(text, "\n")+1)
	for ; len(text) > 0; lineNo++ {
		var line string
		line, text, _ = strings.Cut(text, "\n")
		if len(line) > maxLine {
			return nil, fmt.Errorf("corpus: read: %w", bufio.ErrTooLong)
		}
		line = strings.TrimSuffix(line, "\r")
		if line == "" {
			continue
		}
		// Count tabs before splitting: the phrase is what follows the fifth,
		// and a sixth would silently become part of it.
		if n := strings.Count(line, "\t"); n != 5 {
			return nil, fmt.Errorf("corpus: line %d: expected 6 tab-separated fields, got %d", lineNo, n+1)
		}
		var parts [5]string
		for i := range parts {
			parts[i], line, _ = strings.Cut(line, "\t")
		}
		id, err := strconv.ParseUint(parts[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("corpus: line %d: bad id: %v", lineNo, err)
		}
		camp, err := strconv.ParseUint(parts[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("corpus: line %d: bad campaign: %v", lineNo, err)
		}
		bid, err := strconv.ParseInt(parts[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("corpus: line %d: bad bid: %v", lineNo, err)
		}
		ctr, err := strconv.ParseUint(parts[3], 10, 16)
		if err != nil {
			return nil, fmt.Errorf("corpus: line %d: bad click rate: %v", lineNo, err)
		}
		var excl []string
		if parts[4] != "" {
			excl = strings.Split(parts[4], ",")
		}
		ad := Ad{ID: id, Phrase: line, Meta: Meta{CampaignID: uint32(camp), BidMicros: bid, ClickRate: uint16(ctr), Exclusions: excl}}
		mark := len(words)
		if words = textnorm.AppendWordSet(words, ad.Phrase); len(words) > mark {
			ad.Words = words[mark:len(words):len(words)]
		}
		// Reject anything Write would refuse to emit (e.g. a stray
		// carriage return mid-line, or an empty exclusion from ",,"), so
		// every corpus Read accepts is guaranteed to round-trip.
		if err := checkAd(&ad); err != nil {
			return nil, fmt.Errorf("corpus: line %d: %v", lineNo, err)
		}
		ads = append(ads, ad)
	}
	return ads, nil
}
