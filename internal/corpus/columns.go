package corpus

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
)

// Columns is a corpus in the form the bulk loader reads (core.Load): one
// column per field and no Go pointer per ad. Ad i is position i of every
// per-ad column. Its word set is a run of word IDs, numbers into one
// vocabulary kept in sorted order, so the run of a canonical word set is
// ascending; its phrase and exclusions are bytes of one text column in the
// arena form AppendText writes, which an index copies as they stand.
// ReadColumns fills one from corpus text, FromAds from parsed ads.
type Columns struct {
	ID        []uint64
	Bid       []int64
	Campaign  []uint32
	ClickRate []uint16
	// Ad i's word IDs are WordIDs[WordAt[i]:WordAt[i+1]] and its text is
	// Text[TextAt[i]:TextAt[i+1]]: the offset columns hold one entry more
	// than there are ads (none for no ads).
	WordAt, TextAt []uint32
	WordIDs        []uint32
	Text           []byte
	// Words is the vocabulary, sorted, its bytes packed into one string so
	// that no word keeps other memory alive; DF[w] is how many ads' word
	// sets hold Words[w].
	Words []string
	DF    []uint32
}

// Len returns the number of ads.
func (c *Columns) Len() int { return len(c.ID) }

// Run returns the word IDs of ad i.
func (c *Columns) Run(i int) []uint32 { return c.WordIDs[c.WordAt[i]:c.WordAt[i+1]] }

// TextOf returns the text of ad i.
func (c *Columns) TextOf(i int) []byte { return c.Text[c.TextAt[i]:c.TextAt[i+1]] }

// AppendWords appends the words of ad i to dst.
func (c *Columns) AppendWords(dst []string, i int) []string {
	for _, id := range c.Run(i) {
		dst = append(dst, c.Words[id])
	}
	return dst
}

// AppendText appends an ad's text in arena form to dst:
// uvarint(len(phrase)) phrase uvarint(len(exclusions)), then each
// exclusion as uvarint(len) and its bytes.
func AppendText(dst []byte, phrase string, exclusions []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(phrase)))
	dst = append(dst, phrase...)
	dst = binary.AppendUvarint(dst, uint64(len(exclusions)))
	for _, e := range exclusions {
		dst = binary.AppendUvarint(dst, uint64(len(e)))
		dst = append(dst, e...)
	}
	return dst
}

// TextLen returns the length of AppendText's output.
func TextLen(phrase string, exclusions []string) int {
	n := uvarintLen(len(phrase)) + len(phrase) + uvarintLen(len(exclusions))
	for _, e := range exclusions {
		n += uvarintLen(len(e)) + len(e)
	}
	return n
}

func uvarintLen(n int) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], uint64(n))
}

// uvarint decodes the uvarint at the start of text, which AppendText
// wrote, and returns it and the rest of text.
func uvarint(text string) (uint64, string) {
	x := uint64(0)
	for i, shift := 0, 0; i < len(text); i, shift = i+1, shift+7 {
		x |= uint64(text[i]&0x7f) << shift
		if text[i] < 0x80 {
			return x, text[i+1:]
		}
	}
	return x, ""
}

// nextString reads a uvarint length and that many bytes from text.
func nextString(text string) (string, string) {
	n, text := uvarint(text)
	return text[:n], text[n:]
}

// Ads expands the columns into ads, as Read returns them: the phrases and
// exclusions share one copy of the text and the word sets one slice of the
// vocabulary's strings.
func (c *Columns) Ads() []Ad {
	n := c.Len()
	if n == 0 {
		return nil
	}
	text := string(c.Text)
	words := make([]string, len(c.WordIDs))
	for i, id := range c.WordIDs {
		words[i] = c.Words[id]
	}
	exclusions := 0
	for i := 0; i < n; i++ {
		_, rest := nextString(text[c.TextAt[i]:])
		k, _ := uvarint(rest)
		exclusions += int(k)
	}
	excl := make([]string, 0, exclusions)
	ads := make([]Ad, n)
	for i := range ads {
		phrase, rest := nextString(text[c.TextAt[i]:c.TextAt[i+1]])
		k, rest := uvarint(rest)
		mark := len(excl)
		for ; k > 0; k-- {
			var e string
			e, rest = nextString(rest)
			excl = append(excl, e)
		}
		a := &ads[i]
		a.ID, a.Phrase = c.ID[i], phrase
		a.Meta = Meta{CampaignID: c.Campaign[i], BidMicros: c.Bid[i], ClickRate: c.ClickRate[i]}
		if len(excl) > mark {
			a.Meta.Exclusions = excl[mark:len(excl):len(excl)]
		}
		if lo, hi := c.WordAt[i], c.WordAt[i+1]; hi > lo {
			a.Words = words[lo:hi:hi]
		}
	}
	return ads
}

// FromAds converts ads to columns: the adapter through which every loader
// entry point that takes []Ad reaches the one loader. The vocabulary is
// the words of the ads' Words, which are taken as they stand.
func FromAds(ads []Ad) *Columns {
	n := len(ads)
	c := &Columns{}
	if n == 0 {
		return c
	}
	chunks := max(1, min(runtime.GOMAXPROCS(0), n/4096))
	chunkOf := func(p int) (lo, hi int) { return p * n / chunks, (p + 1) * n / chunks }
	// Per chunk: its document frequencies and the room its ads take.
	dfs := make([]map[string]uint32, chunks)
	wordsAt, textAt := make([]int, chunks+1), make([]int, chunks+1)
	inChunks(chunks, func(p int) {
		df := make(map[string]uint32)
		lo, hi := chunkOf(p)
		for i := lo; i < hi; i++ {
			for _, w := range ads[i].Words {
				df[w]++
			}
			wordsAt[p+1] += len(ads[i].Words)
			textAt[p+1] += TextLen(ads[i].Phrase, ads[i].Meta.Exclusions)
		}
		dfs[p] = df
	})
	for p := 0; p < chunks; p++ {
		wordsAt[p+1] += wordsAt[p]
		textAt[p+1] += textAt[p]
	}
	if uint64(textAt[chunks]) > math.MaxUint32 || uint64(wordsAt[chunks]) > math.MaxUint32 {
		panic("corpus: ads of more than 4 GiB of text or 4G words")
	}
	total := dfs[0]
	for _, df := range dfs[1:] {
		for w, k := range df {
			total[w] += k
		}
	}
	dfs = nil
	c.Words, c.DF = sortedVocab(total)
	for id, w := range c.Words {
		total[w] = uint32(id) // from here on the map numbers the words
	}

	c.ID, c.Bid, c.Campaign, c.ClickRate = make([]uint64, n), make([]int64, n), make([]uint32, n), make([]uint16, n)
	c.WordAt, c.TextAt = make([]uint32, n+1), make([]uint32, n+1)
	c.WordIDs, c.Text = make([]uint32, wordsAt[chunks]), make([]byte, textAt[chunks])
	inChunks(chunks, func(p int) {
		words, text := wordsAt[p], c.Text[textAt[p]:textAt[p]:textAt[p+1]]
		lo, hi := chunkOf(p)
		for i := lo; i < hi; i++ {
			a := &ads[i]
			c.ID[i], c.Bid[i], c.Campaign[i], c.ClickRate[i] = a.ID, a.Meta.BidMicros, a.Meta.CampaignID, a.Meta.ClickRate
			c.WordAt[i], c.TextAt[i] = uint32(words), uint32(textAt[p]+len(text))
			for _, w := range a.Words {
				c.WordIDs[words] = total[w]
				words++
			}
			text = AppendText(text, a.Phrase, a.Meta.Exclusions)
		}
	})
	c.WordAt[n], c.TextAt[n] = uint32(wordsAt[chunks]), uint32(textAt[chunks])
	return c
}

// inChunks calls fn(0) … fn(chunks-1), side by side, and returns when
// every call has.
func inChunks(chunks int, fn func(p int)) {
	if chunks == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for p := 0; p < chunks; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(p)
		}()
	}
	wg.Wait()
}

// sortedVocab returns the words of df, sorted and packed, and their
// frequencies in the same order.
func sortedVocab(df map[string]uint32) ([]string, []uint32) {
	words := make([]string, 0, len(df))
	for w := range df {
		words = append(words, w)
	}
	slices.Sort(words)
	packWords(words)
	freq := make([]uint32, len(words))
	for i, w := range words {
		freq[i] = df[w]
	}
	return words, freq
}

// packWords replaces words by copies of them packed into one string.
func packWords(words []string) {
	size := 0
	for _, w := range words {
		size += len(w)
	}
	var packed strings.Builder
	packed.Grow(size)
	for _, w := range words {
		packed.WriteString(w)
	}
	all := packed.String()
	for i, w := range words {
		words[i], all = all[:len(w)], all[len(w):]
	}
}

// merge concatenates the columns of blocks, each with a vocabulary of its
// own in any order, into one with the sorted vocabulary of them all. It
// moves one column at a time, dropping the blocks' copy of it, so that it
// holds at most the blocks and one column of the result.
func merge(blocks []*Columns) (*Columns, error) {
	total := make(map[string]uint32)
	for _, blk := range blocks {
		for l, w := range blk.Words {
			total[w] += blk.DF[l]
		}
	}
	c := &Columns{}
	c.Words, c.DF = sortedVocab(total)
	for id, w := range c.Words {
		total[w] = uint32(id) // from here on the map numbers the words
	}
	for _, blk := range blocks {
		remap := make([]uint32, len(blk.Words))
		for l, w := range blk.Words {
			remap[l] = total[w]
		}
		for i, l := range blk.WordIDs {
			blk.WordIDs[i] = remap[l]
		}
		blk.Words, blk.DF = nil, nil
	}

	c.ID = gather(blocks, func(b *Columns) *[]uint64 { return &b.ID })
	c.Bid = gather(blocks, func(b *Columns) *[]int64 { return &b.Bid })
	c.Campaign = gather(blocks, func(b *Columns) *[]uint32 { return &b.Campaign })
	c.ClickRate = gather(blocks, func(b *Columns) *[]uint16 { return &b.ClickRate })
	var err error
	if c.WordAt, err = gatherOffsets(blocks, func(b *Columns) *[]uint32 { return &b.WordAt }); err != nil {
		return nil, err
	}
	if c.TextAt, err = gatherOffsets(blocks, func(b *Columns) *[]uint32 { return &b.TextAt }); err != nil {
		return nil, err
	}
	c.WordIDs = gather(blocks, func(b *Columns) *[]uint32 { return &b.WordIDs })
	c.Text = gather(blocks, func(b *Columns) *[]byte { return &b.Text })
	return c, nil
}

// gather concatenates one column of the blocks, exact-size, and drops the
// blocks' copies.
func gather[T any](blocks []*Columns, col func(*Columns) *[]T) []T {
	n := 0
	for _, b := range blocks {
		n += len(*col(b))
	}
	if n == 0 {
		return nil
	}
	out := make([]T, 0, n)
	for _, b := range blocks {
		p := col(b)
		out = append(out, *p...)
		*p = nil
	}
	return out
}

// gatherOffsets concatenates one offset column of the blocks, each
// counting from 0, into offsets into the concatenation of what they
// count.
func gatherOffsets(blocks []*Columns, col func(*Columns) *[]uint32) ([]uint32, error) {
	n := 0
	for _, b := range blocks {
		if k := len(*col(b)); k > 0 {
			n += k - 1
		}
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]uint32, 0, n+1)
	base := uint64(0)
	for _, b := range blocks {
		p := col(b)
		if len(*p) == 0 {
			continue
		}
		for _, at := range (*p)[:len(*p)-1] {
			out = append(out, uint32(base)+at)
		}
		if base += uint64((*p)[len(*p)-1]); base > math.MaxUint32 {
			return nil, fmt.Errorf("corpus: more than 4 GiB of text or 4G words")
		}
		*p = nil
	}
	return append(out, uint32(base)), nil
}
