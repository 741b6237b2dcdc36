package hashindex

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"adindex/internal/bitvec"
)

// Serialization of the compressed index. The format is versioned and
// self-contained:
//
//	magic "ADIXSNAP" | version u8
//	suffixBits uvarint | maxWords uvarint | maxQueryWords uvarint (0: no cut)
//	vocab count uvarint, then per word: len uvarint + bytes + df uvarint
//	sig positions: count uvarint, then gap-encoded uvarints
//	node starts: count uvarint, then gap-encoded uvarints
//	arena: len uvarint + bytes
//
// Everything needed to serve queries is restored; the structure is
// immutable, so no rebuild is required after loading.

const (
	snapMagic   = "ADIXSNAP"
	snapVersion = 1
)

// WriteTo serializes the index. It implements io.WriterTo.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: bufio.NewWriter(w)}
	bw := cw.w.(*bufio.Writer)

	write := func(p []byte) error {
		_, err := cw.Write(p)
		return err
	}
	var tmp [binary.MaxVarintLen64]byte
	putU := func(v uint64) error {
		n := binary.PutUvarint(tmp[:], v)
		return write(tmp[:n])
	}

	if err := write([]byte(snapMagic)); err != nil {
		return cw.n, err
	}
	if err := write([]byte{snapVersion}); err != nil {
		return cw.n, err
	}
	for _, v := range []uint64{uint64(ix.suffixBits), uint64(ix.maxWords), uint64(ix.maxQueryWords)} {
		if err := putU(v); err != nil {
			return cw.n, err
		}
	}
	// Vocabulary, sorted, so one index always writes the same bytes.
	if err := putU(uint64(len(ix.vocab))); err != nil {
		return cw.n, err
	}
	words := make([]string, 0, len(ix.vocab))
	for w := range ix.vocab {
		words = append(words, w)
	}
	sort.Strings(words)
	for _, w := range words {
		if err := putU(uint64(len(w))); err != nil {
			return cw.n, err
		}
		if err := write([]byte(w)); err != nil {
			return cw.n, err
		}
		if err := putU(uint64(ix.vocab[w])); err != nil {
			return cw.n, err
		}
	}
	// Signature positions (gap-encoded).
	sigOnes := ix.sig.Ones()
	if err := putU(uint64(sigOnes)); err != nil {
		return cw.n, err
	}
	prev := -1
	for j := 1; j <= sigOnes; j++ {
		p := ix.sig.Select1(j)
		if err := putU(uint64(p - prev)); err != nil {
			return cw.n, err
		}
		prev = p
	}
	// Node start offsets (gap-encoded).
	nodes := ix.off.Ones()
	if err := putU(uint64(nodes)); err != nil {
		return cw.n, err
	}
	prev = -1
	for j := 1; j <= nodes; j++ {
		p := ix.off.Select1(j)
		if err := putU(uint64(p - prev)); err != nil {
			return cw.n, err
		}
		prev = p
	}
	// Arena.
	if err := putU(uint64(len(ix.arena))); err != nil {
		return cw.n, err
	}
	if err := write(ix.arena); err != nil {
		return cw.n, err
	}
	return cw.n, bw.Flush()
}

// ErrMalformedSnapshot is wrapped by every error Read returns.
var ErrMalformedSnapshot = errors.New("hashindex: malformed snapshot")

// maxPosition bounds every position a snapshot stores: arena offsets and
// signature suffixes both stay below it, and below what an int holds.
const maxPosition uint64 = min(1<<40, math.MaxInt)

// Read deserializes an index written by WriteTo. Every refusal wraps
// ErrMalformedSnapshot. No count in the input is trusted before the bytes
// it counts have arrived, so what Read allocates grows with what it reads,
// plus the 2^SuffixBits-bit signature array the header names.
func Read(r io.Reader) (*Index, error) {
	ix, err := read(bufio.NewReader(r))
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrMalformedSnapshot, err)
	}
	return ix, nil
}

func read(br *bufio.Reader) (*Index, error) {
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("reading magic: %w", err)
	}
	if string(magic) != snapMagic {
		return nil, fmt.Errorf("bad magic %q", magic)
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if ver != snapVersion {
		return nil, fmt.Errorf("unsupported snapshot version %d", ver)
	}
	getU := func() (uint64, error) { return binary.ReadUvarint(br) }

	var header [3]uint64 // suffix bits, MaxWords, MaxQueryWords
	for i := range header {
		if header[i], err = getU(); err != nil {
			return nil, err
		}
	}
	if header[0] < 1 || header[0] > 30 {
		return nil, fmt.Errorf("suffix bits %d out of range", header[0])
	}
	if header[1] < 1 || header[1] > 1<<16 || header[2] > 1<<16 {
		return nil, fmt.Errorf("word limits %d/%d out of range", header[1], header[2])
	}
	ix := &Index{
		suffixBits:    int(header[0]),
		maxWords:      int(header[1]),
		maxQueryWords: int(header[2]),
		mask:          uint64(1)<<header[0] - 1,
		vocab:         make(map[string]int),
	}
	nVocab, err := getU()
	if err != nil {
		return nil, err
	}
	// WriteTo writes the words in strictly increasing order, each with a
	// df no larger than the record count: a repeat would overwrite an
	// entry, and a df past what an int holds would turn negative and
	// change the rarest-word choice of the MaxQueryWords cut.
	var prevWord []byte
	for i := uint64(0); i < nVocab; i++ {
		l, err := getU()
		if err != nil {
			return nil, err
		}
		if l > 1<<16 {
			return nil, fmt.Errorf("implausible word length %d", l)
		}
		word := make([]byte, l)
		if _, err := io.ReadFull(br, word); err != nil {
			return nil, err
		}
		if i > 0 && bytes.Compare(word, prevWord) <= 0 {
			return nil, fmt.Errorf("vocabulary word %q does not follow %q", word, prevWord)
		}
		prevWord = word
		df, err := getU()
		if err != nil {
			return nil, err
		}
		if df > maxPosition {
			return nil, fmt.Errorf("document frequency %d of %q out of range", df, word)
		}
		ix.vocab[string(word)] = int(df)
	}

	// readGaps reads a count and that many gap-encoded, strictly
	// increasing positions; the slice grows with the gaps read, at least
	// one byte each, not with the count claimed.
	readGaps := func() ([]int, error) {
		n, err := getU()
		if err != nil {
			return nil, err
		}
		out := make([]int, 0, min(n, 1<<12))
		pos := -1
		for i := uint64(0); i < n; i++ {
			gap, err := getU()
			if err != nil {
				return nil, err
			}
			if gap == 0 || gap > maxPosition || uint64(pos+1)+gap > maxPosition {
				return nil, fmt.Errorf("position gap %d after %d out of range", gap, pos)
			}
			pos += int(gap)
			out = append(out, pos)
		}
		return out, nil
	}
	sigPositions, err := readGaps()
	if err != nil {
		return nil, fmt.Errorf("signature positions: %w", err)
	}
	starts, err := readGaps()
	if err != nil {
		return nil, fmt.Errorf("node starts: %w", err)
	}
	arenaLen, err := getU()
	if err != nil {
		return nil, err
	}
	if arenaLen > maxPosition {
		return nil, fmt.Errorf("implausible arena size %d", arenaLen)
	}
	var arena bytes.Buffer // grows as the bytes arrive
	if _, err := io.CopyN(&arena, br, int64(arenaLen)); err != nil {
		return nil, fmt.Errorf("arena of %d bytes: %w", arenaLen, err)
	}
	ix.arena = arena.Bytes()

	if len(sigPositions) != len(starts) {
		return nil, fmt.Errorf("%d signatures but %d nodes", len(sigPositions), len(starts))
	}
	ix.sig = bitvec.New(1 << uint(ix.suffixBits))
	for _, p := range sigPositions {
		if p >= ix.sig.Len() {
			return nil, fmt.Errorf("signature position %d out of range", p)
		}
		ix.sig.Set(p)
	}
	ix.sig.BuildRank()
	offLen := len(ix.arena)
	if offLen == 0 {
		offLen = 1
	}
	ix.off, err = bitvec.NewSparse(offLen, starts)
	if err != nil {
		return nil, fmt.Errorf("rebuilding B^off: %w", err)
	}
	return ix, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
