package durable

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"strings"

	"adindex/internal/corpus"
	"adindex/internal/textnorm"
)

// castagnoli is the CRC32C polynomial table used for every checksum in
// the on-disk formats (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Corruption classifies what verification found wrong with an on-disk
// artifact. Each class maps to a distinct cmd/adfsck exit code.
type Corruption int

const (
	// CorruptNone means the artifact verified cleanly.
	CorruptNone Corruption = iota
	// CorruptHeader: snapshot magic, version, or header CRC is wrong.
	CorruptHeader
	// CorruptSectionCRC: a snapshot section's payload fails its CRC or
	// does not decode.
	CorruptSectionCRC
	// CorruptSnapTruncated: the snapshot ends before a section it
	// promises.
	CorruptSnapTruncated
	// CorruptWALTorn: the WAL ends mid-frame (a torn write).
	CorruptWALTorn
	// CorruptWALRecord: a fully present WAL frame fails its CRC or does
	// not decode (bit flip).
	CorruptWALRecord
)

// String names the class for logs and fsck output.
func (c Corruption) String() string {
	switch c {
	case CorruptNone:
		return "ok"
	case CorruptHeader:
		return "bad-snapshot-header"
	case CorruptSectionCRC:
		return "bad-section-crc"
	case CorruptSnapTruncated:
		return "truncated-snapshot"
	case CorruptWALTorn:
		return "torn-wal-tail"
	case CorruptWALRecord:
		return "corrupt-wal-record"
	default:
		return fmt.Sprintf("corruption(%d)", int(c))
	}
}

// CorruptError reports a verification failure with its class, so
// recovery and fsck can react per class.
type CorruptError struct {
	File   string
	Class  Corruption
	Detail string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("durable: %s: %s: %s", e.File, e.Class, e.Detail)
}

// byteReader decodes the varint-based payload encodings with bounds
// checking; every failure is a truncation/corruption signal.
type byteReader struct {
	b   []byte
	off int
}

func (r *byteReader) remaining() int { return len(r.b) - r.off }

func (r *byteReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("bad uvarint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *byteReader) varint() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("bad varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *byteReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(r.remaining()) {
		return "", fmt.Errorf("string of %d bytes overruns payload at offset %d", n, r.off)
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendAd encodes one advertisement. Words are not stored: they are
// recomputed from the phrase on decode, so the on-disk form stays small
// and always reflects the current normalization rules.
func appendAd(b []byte, a *corpus.Ad) []byte {
	b = binary.AppendUvarint(b, a.ID)
	b = binary.AppendUvarint(b, uint64(a.Meta.CampaignID))
	b = binary.AppendVarint(b, a.Meta.BidMicros)
	b = binary.AppendUvarint(b, uint64(a.Meta.ClickRate))
	b = binary.AppendUvarint(b, uint64(len(a.Meta.Exclusions)))
	for _, e := range a.Meta.Exclusions {
		b = appendString(b, e)
	}
	return appendString(b, a.Phrase)
}

// minAdBytes is the shortest encoded ad: five one-byte varints and an
// empty phrase's length byte.
const minAdBytes = 6

func decodeAd(r *byteReader) (corpus.Ad, error) {
	id, err := r.uvarint()
	if err != nil {
		return corpus.Ad{}, err
	}
	camp, err := r.uvarint()
	if err != nil {
		return corpus.Ad{}, err
	}
	bid, err := r.varint()
	if err != nil {
		return corpus.Ad{}, err
	}
	ctr, err := r.uvarint()
	if err != nil {
		return corpus.Ad{}, err
	}
	nexcl, err := r.uvarint()
	if err != nil {
		return corpus.Ad{}, err
	}
	if nexcl > uint64(r.remaining()) {
		return corpus.Ad{}, fmt.Errorf("exclusion count %d overruns payload", nexcl)
	}
	var excl []string
	if nexcl > 0 {
		excl = make([]string, 0, nexcl)
		for i := uint64(0); i < nexcl; i++ {
			e, err := r.str()
			if err != nil {
				return corpus.Ad{}, err
			}
			excl = append(excl, e)
		}
	}
	phrase, err := r.str()
	if err != nil {
		return corpus.Ad{}, err
	}
	meta := corpus.Meta{CampaignID: uint32(camp), BidMicros: bid, ClickRate: uint16(ctr), Exclusions: excl}
	return corpus.NewAd(id, phrase, meta), nil
}

// encodeAds builds the ads section payload.
func encodeAds(ads []corpus.Ad) []byte {
	size := binary.MaxVarintLen64
	for i := range ads {
		size += 4*binary.MaxVarintLen32 + len(ads[i].Phrase) // a lower bound that spares most of the regrowth
	}
	b := binary.AppendUvarint(make([]byte, 0, size), uint64(len(ads)))
	for i := range ads {
		b = appendAd(b, &ads[i])
	}
	return b
}

func decodeAds(payload []byte) ([]corpus.Ad, error) {
	r := &byteReader{b: payload}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// An encoded ad is at least minAdBytes long, so a count the remaining
	// bytes cannot hold is rejected before it sizes an allocation.
	if n > uint64(r.remaining())/minAdBytes {
		return nil, fmt.Errorf("ad count %d overruns payload", n)
	}
	ads := make([]corpus.Ad, 0, n)
	for i := uint64(0); i < n; i++ {
		ad, err := decodeAd(r)
		if err != nil {
			return nil, fmt.Errorf("ad %d: %w", i, err)
		}
		ads = append(ads, ad)
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%d trailing bytes after last ad", r.remaining())
	}
	return ads, nil
}

// encodeMapping builds the mapping section payload: the word-set to
// locator mapping that layout optimization computed (M in the paper),
// persisted so the Section-V placement survives restarts.
func encodeMapping(mapping map[string][]string) []byte {
	// In key order, so one mapping has one encoding: two snapshots of the
	// same state are the same bytes. Each entry is sorted under the first
	// eight bytes of its key, which decide nearly every comparison without
	// a visit to the string.
	type entry struct {
		head uint64
		key  string
		loc  []string
	}
	entries := make([]entry, 0, len(mapping))
	size := binary.MaxVarintLen64
	for key, loc := range mapping {
		var head [8]byte
		copy(head[:], key)
		entries = append(entries, entry{binary.BigEndian.Uint64(head[:]), key, loc})
		size += 2*len(key) + 4 // its words, about as many bytes of locator, four counts
	}
	slices.SortFunc(entries, func(a, b entry) int {
		if a.head != b.head {
			return cmp.Compare(a.head, b.head)
		}
		return strings.Compare(a.key, b.key)
	})
	b := binary.AppendUvarint(make([]byte, 0, size), uint64(len(mapping)))
	for _, e := range entries {
		key, loc := e.key, e.loc
		// The words of the key (textnorm.SplitKey), without the slice.
		words := 0
		if key != "" {
			words = strings.Count(key, "\x1f") + 1
		}
		b = binary.AppendUvarint(b, uint64(words))
		for rest := key; words > 0; words-- {
			var w string
			w, rest, _ = strings.Cut(rest, "\x1f")
			b = appendString(b, w)
		}
		b = binary.AppendUvarint(b, uint64(len(loc)))
		for _, w := range loc {
			b = appendString(b, w)
		}
	}
	return b
}

// minMappingEntryBytes is the shortest encoded mapping entry: an empty
// word set and an empty locator, one count byte each.
const minMappingEntryBytes = 2

func decodeMapping(payload []byte) (map[string][]string, error) {
	r := &byteReader{b: payload}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.remaining())/minMappingEntryBytes {
		return nil, fmt.Errorf("mapping count %d overruns payload", n)
	}
	mapping := make(map[string][]string, n)
	readWords := func() ([]string, error) {
		cnt, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if cnt > uint64(r.remaining()) {
			return nil, fmt.Errorf("word count %d overruns payload", cnt)
		}
		words := make([]string, 0, cnt)
		for i := uint64(0); i < cnt; i++ {
			w, err := r.str()
			if err != nil {
				return nil, err
			}
			words = append(words, w)
		}
		return words, nil
	}
	for i := uint64(0); i < n; i++ {
		words, err := readWords()
		if err != nil {
			return nil, fmt.Errorf("mapping entry %d: %w", i, err)
		}
		loc, err := readWords()
		if err != nil {
			return nil, fmt.Errorf("mapping entry %d: %w", i, err)
		}
		mapping[textnorm.SetKey(words)] = loc
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%d trailing bytes after last mapping entry", r.remaining())
	}
	return mapping, nil
}
