// Package compress implements the data-node compression of Section VI:
// phrases within a node share words (the re-mapping groups related
// phrases), so each phrase is front-coded relative to its predecessor;
// advertisement IDs and bid prices are delta-encoded with variable-length
// integers. Compression is strictly per node, so decompression never needs
// context beyond the node — exactly the property that lets the optimizer
// fold compression gains into weight(S).
package compress

import (
	"encoding/binary"
	"errors"
	"fmt"

	"adindex/internal/corpus"
)

// EncodeNode serializes a data node's records (in node order) into a
// compact byte string. Layout per record:
//
//	uvarint prefixLen   — bytes shared with the previous record's phrase
//	uvarint suffixLen   — remaining phrase bytes
//	suffix bytes
//	uvarint idDelta     — ID delta from previous record (first: absolute)
//	svarint bidDelta    — bid delta from previous record (first: absolute)
//	uvarint campaignID
//	uvarint clickRate
//	uvarint numExclusions, then per exclusion: uvarint len + bytes
func EncodeNode(records []corpus.Ad) []byte {
	var buf []byte
	var tmp [binary.MaxVarintLen64]byte
	putU := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}
	putS := func(v int64) {
		n := binary.PutVarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}
	prevPhrase := ""
	var prevID uint64
	var prevBid int64
	for i := range records {
		r := &records[i]
		p := commonPrefix(prevPhrase, r.Phrase)
		putU(uint64(p))
		putU(uint64(len(r.Phrase) - p))
		buf = append(buf, r.Phrase[p:]...)
		putU(r.ID - prevID)
		putS(r.Meta.BidMicros - prevBid)
		putU(uint64(r.Meta.CampaignID))
		putU(uint64(r.Meta.ClickRate))
		putU(uint64(len(r.Meta.Exclusions)))
		for _, e := range r.Meta.Exclusions {
			putU(uint64(len(e)))
			buf = append(buf, e...)
		}
		prevPhrase = r.Phrase
		prevID = r.ID
		prevBid = r.Meta.BidMicros
	}
	return buf
}

// ErrMalformedNode is wrapped by every error DecodeNode and Decoder.Next
// return: the bytes are not a node EncodeNode could have written.
var ErrMalformedNode = errors.New("compress: malformed node")

// DecodeNode parses a node encoded by EncodeNode. Word sets are recomputed
// from the phrases.
func DecodeNode(data []byte) ([]corpus.Ad, error) {
	var records []corpus.Ad
	d := NewDecoder(data)
	for d.More() {
		ad, err := d.Next()
		if err != nil {
			return nil, err
		}
		records = append(records, ad)
	}
	return records, nil
}

// Decoder decodes a node record by record, enabling the early-terminated
// sequential scans the cost model assumes: a consumer stops as soon as a
// decoded phrase is longer than the query, paying only the bytes consumed
// so far (see Offset).
type Decoder struct {
	data       []byte
	pos        int
	prevPhrase string
	prevID     uint64
	prevBid    int64
}

// NewDecoder returns a decoder positioned at the first record.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// More reports whether any bytes remain.
func (d *Decoder) More() bool { return d.pos < len(d.data) }

// Offset returns the number of bytes consumed so far.
func (d *Decoder) Offset() int { return d.pos }

func (d *Decoder) getU() (uint64, error) {
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated uvarint at %d", ErrMalformedNode, d.pos)
	}
	d.pos += n
	return v, nil
}

func (d *Decoder) getS() (int64, error) {
	v, n := binary.Varint(d.data[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint at %d", ErrMalformedNode, d.pos)
	}
	d.pos += n
	return v, nil
}

// Next decodes the next record.
func (d *Decoder) Next() (corpus.Ad, error) {
	var zero corpus.Ad
	prefixLen, err := d.getU()
	if err != nil {
		return zero, err
	}
	suffixLen, err := d.getU()
	if err != nil {
		return zero, err
	}
	if prefixLen > uint64(len(d.prevPhrase)) {
		return zero, fmt.Errorf("%w: prefix %d longer than previous phrase %q", ErrMalformedNode, prefixLen, d.prevPhrase)
	}
	if suffixLen > uint64(len(d.data)-d.pos) {
		return zero, fmt.Errorf("%w: truncated suffix at %d", ErrMalformedNode, d.pos)
	}
	phrase := d.prevPhrase[:prefixLen] + string(d.data[d.pos:d.pos+int(suffixLen)])
	d.pos += int(suffixLen)
	idDelta, err := d.getU()
	if err != nil {
		return zero, err
	}
	bidDelta, err := d.getS()
	if err != nil {
		return zero, err
	}
	campaign, err := d.getU()
	if err != nil {
		return zero, err
	}
	if campaign > 1<<32-1 {
		return zero, fmt.Errorf("%w: campaign %d overflows uint32", ErrMalformedNode, campaign)
	}
	ctr, err := d.getU()
	if err != nil {
		return zero, err
	}
	if ctr > 1<<16-1 {
		return zero, fmt.Errorf("%w: click rate %d overflows uint16", ErrMalformedNode, ctr)
	}
	numExcl, err := d.getU()
	if err != nil {
		return zero, err
	}
	if numExcl > uint64(len(d.data)) {
		return zero, fmt.Errorf("%w: implausible exclusion count %d", ErrMalformedNode, numExcl)
	}
	var excl []string
	for e := uint64(0); e < numExcl; e++ {
		l, err := d.getU()
		if err != nil {
			return zero, err
		}
		if l > uint64(len(d.data)-d.pos) {
			return zero, fmt.Errorf("%w: truncated exclusion at %d", ErrMalformedNode, d.pos)
		}
		excl = append(excl, string(d.data[d.pos:d.pos+int(l)]))
		d.pos += int(l)
	}
	id := d.prevID + idDelta
	bid := d.prevBid + bidDelta
	meta := corpus.Meta{CampaignID: uint32(campaign), BidMicros: bid, ClickRate: uint16(ctr), Exclusions: excl}
	d.prevPhrase, d.prevID, d.prevBid = phrase, id, bid
	return corpus.NewAd(id, phrase, meta), nil
}

// RawSize returns the uncompressed byte footprint of the records under the
// cost model's accounting (phrase + metadata sizes).
func RawSize(records []corpus.Ad) int {
	n := 0
	for i := range records {
		n += records[i].Size()
	}
	return n
}

// Ratio returns compressed/raw size for the records (1.0 when raw is empty).
func Ratio(records []corpus.Ad) float64 {
	raw := RawSize(records)
	if raw == 0 {
		return 1
	}
	return float64(len(EncodeNode(records))) / float64(raw)
}

func commonPrefix(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}
