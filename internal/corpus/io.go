package corpus

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

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

// checkAd checks an ad's phrase and exclusions, in that order.
func checkAd(phrase string, exclusions []string) error {
	if err := checkPhrase(phrase); err != nil {
		return fmt.Errorf("phrase %q %v", phrase, err)
	}
	for _, e := range exclusions {
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
		if err := checkAd(a.Phrase, a.Meta.Exclusions); err != nil {
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

// readBlock is the size of the blocks ReadColumns reads its input in, and
// maxReaders the most blocks it parses side by side.
const (
	readBlock  = 256 << 10
	maxReaders = 8
)

// Read parses a corpus from the text format produced by Write: the
// columns ReadColumns reads, expanded into ads. The ads, and the error for
// the first bad line, are those of parsing line by line.
func Read(r io.Reader) (*Corpus, error) {
	c, err := ReadColumns(r)
	if err != nil {
		return nil, err
	}
	return &Corpus{Ads: c.Ads()}, nil
}

// ReadColumns parses a corpus from the text format produced by Write into
// the loader's columns. It reads the input a block at a time, cuts each
// block after its last newline and parses the blocks side by side, each
// into columns of its own, which are merged once the input is read: it
// never holds the whole input, and allocates by what it has read, never by
// what the input says its size is. The columns, and the error for the
// first bad line, are those of parsing line by line.
func ReadColumns(r io.Reader) (*Columns, error) {
	return readColumns(r, readBlock, min(runtime.GOMAXPROCS(0), maxReaders))
}

// readColumns is ReadColumns with blocks of blockSize bytes (more where a
// line is longer) parsed by up to workers goroutines.
func readColumns(r io.Reader, blockSize, workers int) (*Columns, error) {
	type job struct {
		buf       []byte // the block's buffer, its text at the start
		text      int    // the length of the text
		firstLine int
		out       *block
	}
	jobs := make(chan job)
	// At most a buffer per worker, one being filled and one taking the
	// unterminated tail of the last are in use.
	free := make(chan []byte, workers+2)
	made := 0
	buffer := func(size int) []byte {
		var b []byte
		select {
		case b = <-free:
		default:
			if made < cap(free) {
				made++
			} else {
				b = <-free
			}
		}
		return slices.Grow(b[:0], size)
	}
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var p blockParser
			for j := range jobs {
				// The block's strings alias its buffer until it is parsed;
				// nothing the parse keeps does.
				j.out.cols, j.out.err = p.parse(unsafe.String(&j.buf[0], j.text), j.firstLine)
				if j.out.err != nil {
					failed.Store(true)
				}
				free <- j.buf
			}
		}()
	}

	var blocks []*block
	var readErr error
	eof := false
	lines := 0
	buf, want := buffer(0), blockSize
	for !failed.Load() {
		// Read until the buffer holds want bytes or the input ends. A
		// buffer grows with what arrives, so what it holds is what was read.
		for empty := 0; len(buf) < want && !eof; {
			if len(buf) == cap(buf) {
				buf = slices.Grow(buf, max(len(buf), 512))
			}
			n, err := r.Read(buf[len(buf):cap(buf)])
			buf = buf[:len(buf)+n]
			switch {
			case err == io.EOF:
				eof = true
			case err != nil:
				eof, readErr = true, err
			case n == 0:
				if empty++; empty == 100 {
					eof, readErr = true, io.ErrNoProgress
				}
			}
		}
		// The block ends after the last newline, or at the end of the
		// input; a buffer that holds no newline holds a part of one line,
		// which is read on unless it is already too long for one.
		cut := bytes.LastIndexByte(buf, '\n') + 1
		last := eof || cut == 0 && len(buf) > maxLine
		if last {
			cut = len(buf)
		} else if cut == 0 {
			want = 2 * len(buf)
			continue
		}
		want = blockSize
		var next []byte
		if !last {
			next = append(buffer(len(buf)-cut), buf[cut:]...)
		}
		if cut > 0 {
			b := &block{}
			blocks = append(blocks, b)
			first := lines + 1
			lines += bytes.Count(buf[:cut], []byte{'\n'})
			jobs <- job{buf: buf, text: cut, firstLine: first, out: b}
		} else {
			free <- buf
		}
		if last {
			break
		}
		buf = next
	}
	close(jobs)
	wg.Wait()
	// Like a line scanner, parse what did arrive before reporting that the
	// rest did not: a malformed line comes before the failed read.
	parsed := make([]*Columns, len(blocks))
	for i, b := range blocks {
		if b.err != nil {
			return nil, b.err
		}
		parsed[i] = b.cols
	}
	if readErr != nil {
		return nil, fmt.Errorf("corpus: read: %w", readErr)
	}
	return merge(parsed)
}

// block is the outcome of parsing one block: its columns, with a
// vocabulary of their own, or the error for its first bad line.
type block struct {
	cols *Columns
	err  error
}

// blockParser parses blocks, one at a time, into columns, reusing its
// scratch space from one block to the next.
type blockParser struct {
	c     Columns           // the block's columns as they grow
	ids   map[string]uint32 // the block's vocabulary: word -> number
	words []string          // one ad's word set
	excl  []string          // one ad's exclusions
}

// parse returns the columns of text's lines, the first of which is line
// lineNo of the input, or the error for the first bad line. The columns
// are exact-size, and their vocabulary is numbered in the order the words
// first occur.
func (p *blockParser) parse(text string, lineNo int) (*Columns, error) {
	if p.ids == nil {
		p.ids = make(map[string]uint32)
	}
	defer clear(p.ids) // its keys may alias the block's buffer
	c := &p.c
	*c = Columns{ID: c.ID[:0], Bid: c.Bid[:0], Campaign: c.Campaign[:0], ClickRate: c.ClickRate[:0],
		WordAt: c.WordAt[:0], TextAt: c.TextAt[:0], WordIDs: c.WordIDs[:0], Text: c.Text[:0], Words: c.Words[:0], DF: c.DF[:0]}
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
		p.excl = p.excl[:0]
		for rest, more := parts[4], parts[4] != ""; more; {
			var e string
			e, rest, more = strings.Cut(rest, ",")
			p.excl = append(p.excl, e)
		}
		// Reject anything Write would refuse to emit (e.g. a stray
		// carriage return mid-line, or an empty exclusion from ",,"), so
		// every corpus Read accepts is guaranteed to round-trip.
		if err := checkAd(line, p.excl); err != nil {
			return nil, fmt.Errorf("corpus: line %d: %v", lineNo, err)
		}
		c.ID, c.Bid = append(c.ID, id), append(c.Bid, bid)
		c.Campaign, c.ClickRate = append(c.Campaign, uint32(camp)), append(c.ClickRate, uint16(ctr))
		c.WordAt, c.TextAt = append(c.WordAt, uint32(len(c.WordIDs))), append(c.TextAt, uint32(len(c.Text)))
		c.Text = AppendText(c.Text, line, p.excl)
		p.words = textnorm.AppendWordSet(p.words[:0], line)
		for _, w := range p.words {
			wid, ok := p.ids[w]
			if !ok {
				wid = uint32(len(c.Words))
				p.ids[w] = wid
				c.Words, c.DF = append(c.Words, w), append(c.DF, 0)
			}
			c.DF[wid]++
			c.WordIDs = append(c.WordIDs, wid)
		}
	}
	if len(c.ID) == 0 {
		return &Columns{}, nil
	}
	c.WordAt, c.TextAt = append(c.WordAt, uint32(len(c.WordIDs))), append(c.TextAt, uint32(len(c.Text)))
	out := &Columns{ID: slices.Clone(c.ID), Bid: slices.Clone(c.Bid), Campaign: slices.Clone(c.Campaign),
		ClickRate: slices.Clone(c.ClickRate), WordAt: slices.Clone(c.WordAt), TextAt: slices.Clone(c.TextAt),
		WordIDs: slices.Clone(c.WordIDs), Text: slices.Clone(c.Text), Words: slices.Clone(c.Words), DF: slices.Clone(c.DF)}
	packWords(out.Words) // they may alias the block's buffer
	return out, nil
}
