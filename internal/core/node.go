package core

import (
	"cmp"
	"encoding/binary"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"unsafe"

	"adindex/internal/corpus"
)

// node is a data node (Figure 4): the variable-length run of records
// holding every advertisement mapped to one hash key. Its records are
// positions off … off+n-1 of the index's record columns, and the
// positions up to off+cap are its room to grow. Records are kept ordered
// by word count, then set key, then ID (CompareRecords): query processing
// stops scanning at the first phrase longer than the query (Section V-A),
// and the records of one word set are adjacent (mapping condition IV).
//
// Because distinct word sets can collide under WordHash, and because
// re-mapping deliberately co-locates different word sets, a node may hold
// records from several locators; each record carries its exact word set.
type node struct {
	off, n, cap uint32
}

// Ref names one record of an index: its position in the record columns.
// A match path appends Refs; the ad behind one is built only when a
// caller copies it out (AppendAd). A Ref is valid until the index's next
// Insert or Delete.
type Ref uint32

// The record columns. A record is a position r in every one of them:
//
//	ids[r], bids[r], ctr[r], campaign[r]  the ad's ID and info(A)
//	sigs[r]     the signature of its word set (SetSignature): the scan
//	            rejects most records on this one 64-bit load
//	wcs[r]      its word count: the scan's length early-exit
//	sameKey[r]  its word set is record r-1's (set runs are verified once)
//	wordAt[r]   its word IDs are wordIDs[wordAt[r] : wordAt[r]+wcs[r]],
//	            in canonical (string) order; a set's records share them
//	textAt[r]   its phrase and exclusions start at arena[textAt[r]]
//
// A record's text is uvarint(len(phrase)) phrase uvarint(#exclusions)
// and each exclusion as uvarint(len) bytes (corpus.AppendText). The
// arena is append-only: bytes below its length are never written again,
// so a phrase copied out of it (a string aliasing the arena) stays valid
// and immutable for as long as anyone holds it.

// recWords returns the word IDs of record r.
func (ix *Index) recWords(r uint32) []uint32 {
	at := ix.wordAt[r]
	return ix.wordIDs[at : at+ix.wcs[r]]
}

// sameSet reports whether records r and s hold the same word set.
func (ix *Index) sameSet(r, s uint32) bool {
	return ix.wcs[r] == ix.wcs[s] && slices.Equal(ix.recWords(r), ix.recWords(s))
}

// compareRecord is CompareRecords between record r and a record with word
// set ids and the given ID.
func (ix *Index) compareRecord(r uint32, ids []uint32, id uint64) int {
	if c := cmp.Compare(int(ix.wcs[r]), len(ids)); c != 0 {
		return c
	}
	if c := compareRuns(ix.voc.words, ix.recWords(r), ids); c != 0 {
		return c
	}
	return cmp.Compare(ix.ids[r], id)
}

// search returns the first position i of node k whose record is not below
// (ids, id) in node order; records equal in all of it come after i.
func (ix *Index) search(k uint32, ids []uint32, id uint64) uint32 {
	nd := ix.nodes[k]
	lo, hi := uint32(0), nd.n
	for lo < hi {
		mid := lo + (hi-lo)/2
		if ix.compareRecord(nd.off+mid, ids, id) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// find returns the position of a record of node k with the given word set
// and ID, or -1. The node order makes it a binary search: churn costs
// O(log n) to locate plus the splice, not a full node scan per delete.
func (ix *Index) find(k uint32, ids []uint32, id uint64) int {
	i := ix.search(k, ids, id)
	if nd := ix.nodes[k]; i < nd.n && ix.compareRecord(nd.off+i, ids, id) == 0 {
		return int(i)
	}
	return -1
}

// lastOfSet reports whether record r, at position i of node k, is the
// only record of its word set: the records of one set are adjacent, and
// sameKey marks the joints.
func (ix *Index) lastOfSet(k, i uint32) bool {
	nd := ix.nodes[k]
	r := nd.off + i
	return !ix.sameKey[r] && (i+1 == nd.n || !ix.sameKey[r+1])
}

// openSlot makes room for one record at position i of node k, moving the
// node to the end of the columns first when it has no room, and returns
// the record's column position.
func (ix *Index) openSlot(k, i uint32) uint32 {
	if nd := ix.nodes[k]; nd.n == nd.cap {
		ix.relocate(k, max(2*nd.n, 2))
	}
	nd := &ix.nodes[k]
	lo, hi := nd.off+i, nd.off+nd.n
	shiftUp(ix.ids, lo, hi)
	shiftUp(ix.bids, lo, hi)
	shiftUp(ix.ctr, lo, hi)
	shiftUp(ix.campaign, lo, hi)
	shiftUp(ix.sigs, lo, hi)
	shiftUp(ix.wcs, lo, hi)
	shiftUp(ix.sameKey, lo, hi)
	shiftUp(ix.wordAt, lo, hi)
	shiftUp(ix.textAt, lo, hi)
	nd.n++
	return lo
}

// closeSlot removes the record at position i of node k; the node keeps
// the freed slot as room.
func (ix *Index) closeSlot(k, i uint32) {
	nd := &ix.nodes[k]
	lo, hi := nd.off+i, nd.off+nd.n
	shiftDown(ix.ids, lo, hi)
	shiftDown(ix.bids, lo, hi)
	shiftDown(ix.ctr, lo, hi)
	shiftDown(ix.campaign, lo, hi)
	shiftDown(ix.sigs, lo, hi)
	shiftDown(ix.wcs, lo, hi)
	shiftDown(ix.sameKey, lo, hi)
	shiftDown(ix.wordAt, lo, hi)
	shiftDown(ix.textAt, lo, hi)
	nd.n--
}

// relocate moves node k's records to the end of the columns, with room
// for capacity records. The slots it leaves are garbage until compact.
func (ix *Index) relocate(k, capacity uint32) {
	nd := &ix.nodes[k]
	lo, hi := nd.off, nd.off+nd.n
	if uint64(len(ix.ids))+uint64(capacity) > MaxRecords {
		panic("core: index exceeds MaxRecords record slots")
	}
	at := uint32(len(ix.ids))
	ix.ids = moveTail(ix.ids, lo, hi, capacity)
	ix.bids = moveTail(ix.bids, lo, hi, capacity)
	ix.ctr = moveTail(ix.ctr, lo, hi, capacity)
	ix.campaign = moveTail(ix.campaign, lo, hi, capacity)
	ix.sigs = moveTail(ix.sigs, lo, hi, capacity)
	ix.wcs = moveTail(ix.wcs, lo, hi, capacity)
	ix.sameKey = moveTail(ix.sameKey, lo, hi, capacity)
	ix.wordAt = moveTail(ix.wordAt, lo, hi, capacity)
	ix.textAt = moveTail(ix.textAt, lo, hi, capacity)
	nd.off, nd.cap = at, capacity
}

// MaxRecords bounds the records, and the record slots, of an index: every
// Ref is below it, and a caller may name records of its own with the
// values from MaxRecords on.
const MaxRecords = 1 << 31

// maxArena bounds the arena: text offsets are uint32.
const maxArena = 1 << 32

// shiftUp moves col[lo:hi] up by one; col[hi] must be room.
func shiftUp[T any](col []T, lo, hi uint32) { copy(col[lo+1:hi+1], col[lo:hi]) }

// shiftDown moves col[lo+1:hi] down by one.
func shiftDown[T any](col []T, lo, hi uint32) { copy(col[lo:hi-1], col[lo+1:hi]) }

// moveTail appends a copy of col[lo:hi] and room for capacity elements in
// all.
func moveTail[T any](col []T, lo, hi, capacity uint32) []T {
	at := len(col)
	col = slices.Grow(col, int(capacity))[:at+int(capacity)]
	copy(col[at:], col[lo:hi])
	return col
}

// appendText appends an ad's text to the arena and returns its offset.
func (ix *Index) appendText(ad *corpus.Ad) uint32 {
	at, n := len(ix.arena), corpus.TextLen(ad.Phrase, ad.Meta.Exclusions)
	if uint64(at)+uint64(n) > maxArena {
		panic("core: phrase arena exceeds 4 GiB")
	}
	ix.arena = corpus.AppendText(slices.Grow(ix.arena, n), ad.Phrase, ad.Meta.Exclusions)
	ix.textUsed += n
	return uint32(at)
}

// arenaString reads a uvarint length and that many bytes from text, as a
// string aliasing the arena.
func arenaString(text []byte) (string, []byte) {
	n, k := binary.Uvarint(text)
	text = text[k:]
	if n == 0 {
		return "", text
	}
	return unsafe.String(&text[0], int(n)), text[n:]
}

// text returns record r's text, from its start to the end of the arena.
func (ix *Index) text(r uint32) []byte { return ix.arena[ix.textAt[r]:] }

// phrase returns record r's bid phrase.
func (ix *Index) phrase(r uint32) string {
	p, _ := arenaString(ix.text(r))
	return p
}

// textStats decodes record r's text: its arena bytes, its number of
// exclusions, and size(A) (corpus.Ad.Size) of the record.
func (ix *Index) textStats(r uint32) (n, exclusions, size int) { return measureText(ix.text(r)) }

// measureText is textStats of the record text at the start of text.
func measureText(text []byte) (n, exclusions, size int) {
	p, rest := arenaString(text)
	size = len(p) + 2 + 8 + 4 + 8 + 2 // as corpus.Ad.Size
	count, k := binary.Uvarint(rest)
	rest = rest[k:]
	for i := uint64(0); i < count; i++ {
		var e string
		e, rest = arenaString(rest)
		size += len(e) + 1
	}
	return len(text) - len(rest), int(count), size
}

// size returns size(A) of record r.
func (ix *Index) size(r uint32) int {
	_, _, size := ix.textStats(r)
	return size
}

// ID returns the ad ID of record r.
func (ix *Index) ID(r Ref) uint64 {
	id := ix.ids[r]
	runtime.KeepAlive(ix)
	return id
}

// Bid returns the bid and click rate of record r: the metadata a record
// frame carries.
func (ix *Index) Bid(r Ref) (micros int64, clickRate uint16) {
	micros, clickRate = ix.bids[r], ix.ctr[r]
	runtime.KeepAlive(ix)
	return micros, clickRate
}

// SetKey returns the set key of record r's word set.
func (ix *Index) SetKey(r Ref) string {
	key := runKey(ix.voc.words, ix.recWords(uint32(r)))
	runtime.KeepAlive(ix)
	return key
}

// AdStrings returns how many strings AppendAd takes from its string
// arena for record r: its words and its exclusions.
func (ix *Index) AdStrings(r Ref) int {
	_, exclusions, _ := ix.textStats(uint32(r))
	n := int(ix.wcs[r]) + exclusions
	runtime.KeepAlive(ix)
	return n
}

// AppendAd appends the ad of record r to dst. Its Words are the
// vocabulary's strings and its Phrase and Exclusions alias the arena; the
// slice headers of Words and Exclusions are appended to strs, so a caller
// that sizes strs up front (AdStrings) copies a match list out in one
// allocation. Both slices are returned extended. Empty Words and
// Exclusions are nil.
func (ix *Index) AppendAd(dst []corpus.Ad, strs []string, r Ref) ([]corpus.Ad, []string) {
	dst = append(dst, corpus.Ad{})
	ad := &dst[len(dst)-1]
	ad.ID = ix.ids[r]
	ad.Meta.CampaignID, ad.Meta.BidMicros, ad.Meta.ClickRate = ix.campaign[r], ix.bids[r], ix.ctr[r]
	if ws := ix.recWords(uint32(r)); len(ws) > 0 {
		mark := len(strs)
		for _, id := range ws {
			strs = append(strs, ix.voc.words[id])
		}
		ad.Words = strs[mark:len(strs):len(strs)]
	}
	var rest []byte
	ad.Phrase, rest = arenaString(ix.text(uint32(r)))
	if rest[0] != 0 { // the exclusion count
		count, k := binary.Uvarint(rest)
		rest = rest[k:]
		mark := len(strs)
		for i := uint64(0); i < count; i++ {
			var e string
			e, rest = arenaString(rest)
			strs = append(strs, e)
		}
		ad.Meta.Exclusions = strs[mark:len(strs):len(strs)]
	}
	runtime.KeepAlive(ix)
	return dst, strs
}

// AppendRecordJSON appends record r as JSON: exactly the bytes
// corpus.(*Ad).AppendJSON writes for the ad AppendAd builds for it, with no
// ad built. Its words are copied from their JSON strings, which are
// computed once per index.
func (ix *Index) AppendRecordJSON(dst []byte, r Ref) []byte {
	dst = append(dst, `{"ID":`...)
	dst = strconv.AppendUint(dst, ix.ids[r], 10)
	dst = append(dst, `,"Phrase":`...)
	phrase, rest := arenaString(ix.text(uint32(r)))
	dst = corpus.AppendJSONString(dst, phrase)
	dst = append(dst, `,"Words":`...)
	if ws := ix.recWords(uint32(r)); len(ws) == 0 {
		dst = append(dst, "null"...)
	} else {
		q := ix.quotedWords()
		dst = append(dst, '[')
		for i, id := range ws {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = q.append(dst, ix.voc.words, id)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"Meta":{"CampaignID":`...)
	dst = strconv.AppendUint(dst, uint64(ix.campaign[r]), 10)
	dst = append(dst, `,"BidMicros":`...)
	dst = strconv.AppendInt(dst, ix.bids[r], 10)
	dst = append(dst, `,"ClickRate":`...)
	dst = strconv.AppendUint(dst, uint64(ix.ctr[r]), 10)
	dst = append(dst, `,"Exclusions":`...)
	if count, k := binary.Uvarint(rest); count == 0 {
		dst = append(dst, "null"...)
	} else {
		rest = rest[k:]
		dst = append(dst, '[')
		for i := uint64(0); i < count; i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			var e string
			e, rest = arenaString(rest)
			dst = corpus.AppendJSONString(dst, e)
		}
		dst = append(dst, ']')
	}
	runtime.KeepAlive(ix)
	return append(dst, '}', '}')
}

// quotedWords holds the words of a vocabulary as JSON strings, back to
// back: word id's is text[at[id]:at[id+1]].
type quotedWords struct {
	text []byte
	at   []uint32
}

// quotedWords returns the vocabulary's JSON strings, building them on the
// first call. Readers that race to build them each build the same table.
// Words an Insert numbers afterwards are quoted as they are written.
func (ix *Index) quotedWords() *quotedWords {
	if q := ix.quoted.Load(); q != nil {
		return q
	}
	q := &quotedWords{at: make([]uint32, 1, len(ix.voc.words)+1)}
	for _, w := range ix.voc.words {
		q.text = corpus.AppendJSONString(q.text, w)
		q.at = append(q.at, uint32(len(q.text)))
	}
	ix.quoted.Store(q)
	return q
}

// append appends word id, one of words, as a JSON string.
func (q *quotedWords) append(dst []byte, words []string, id uint32) []byte {
	if int(id)+1 >= len(q.at) {
		return corpus.AppendJSONString(dst, words[id])
	}
	return append(dst, q.text[q.at[id]:q.at[id+1]]...)
}

// CompareRecords is the order a data node keeps its records in: by word
// count, then set key, then ID. A structure that merges nodes keeps it too.
func CompareRecords(a, b *corpus.Ad) int {
	if c := cmp.Compare(len(a.Words), len(b.Words)); c != 0 {
		return c
	}
	if c := strings.Compare(a.SetKey(), b.SetKey()); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}
