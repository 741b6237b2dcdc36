package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"adindex/internal/corpus"
)

// snapshotOf frames raw ads and mapping section payloads (nil: section
// absent) as a snapshot file with correct CRCs, so the fuzzer reaches the
// section decoders behind the checksum without having to forge one.
func snapshotOf(ads, mapping []byte) []byte {
	var sections []section
	if ads != nil {
		sections = append(sections, section{sectionAds, ads})
	}
	if mapping != nil {
		sections = append(sections, section{sectionMapping, mapping})
	}
	return bytes.Join(snapshotParts(7, 9, sections...), nil)
}

// encodeSnapshot is the file writeSnapshot writes for st.
func encodeSnapshot(st *SnapshotState) []byte {
	return bytes.Join(snapshotParts(st.Gen, st.Epoch,
		section{sectionAds, encodeAds(st.Ads)}, section{sectionMapping, encodeMapping(st.Mapping)}), nil)
}

// FuzzDurableDecoders feeds arbitrary bytes to the two decoders recovery
// runs over bytes read from disk: parseSnapshot (under loadSnapshot) and
// scanWAL (under readWAL). Each input is tried as a whole file and —
// framed with correct checksums — as an ads section, a mapping section
// and a record payload, so the decoders behind the CRCs are reached too.
// None may panic, rejections are typed, allocation stays within a
// constant times the input, and whatever a decoder accepts survives the
// writers' encoding and a second decode unchanged.
func FuzzDurableDecoders(f *testing.F) {
	ads := []corpus.Ad{
		corpus.NewAd(1, "cheap used books", corpus.Meta{CampaignID: 3, BidMicros: -5, ClickRate: 9}),
		corpus.NewAd(1<<40, "running shoes", corpus.Meta{Exclusions: []string{"free", "diy"}}),
	}
	snap := encodeSnapshot(&SnapshotState{Gen: 4, Epoch: 11, Ads: ads, Mapping: map[string][]string{"books\x00used": {"books"}}})
	frames := appendFrame(nil, encodeRecord(&Record{Op: OpInsert, Ad: ads[1]}))
	frames = appendFrame(frames, encodeRecord(&Record{Op: OpDelete, ID: 1, Phrase: "cheap used books"}))
	for _, seed := range [][]byte{snap, frames, encodeAds(ads), encodeMapping(testMapping()), encodeRecord(&Record{Op: OpInsert, Ad: ads[0]})} {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		flipped := bytes.Clone(seed)
		flipped[len(flipped)/3] ^= 0x40
		f.Add(flipped)
	}
	f.Add(binary.AppendUvarint(nil, 1<<40))                                 // a count far past the payload
	f.Add(append(binary.AppendUvarint(nil, 1<<16), make([]byte, 1<<16)...)) // a count the payload length allows but its elements cannot fill

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)

		for _, in := range [][]byte{
			data,
			snapshotOf(data, nil),
			snapshotOf(nil, data),
			snapshotOf(data, data),
		} {
			st, err := parseSnapshot("fuzz", in)
			if err != nil {
				var ce *CorruptError
				if !errors.As(err, &ce) || ce.Class == CorruptNone {
					t.Fatalf("parseSnapshot: untyped error %v", err)
				}
				continue
			}
			again, err := parseSnapshot("fuzz", encodeSnapshot(st))
			if err != nil {
				t.Fatalf("re-encoded snapshot rejected: %v", err)
			}
			if again.Gen != st.Gen || again.Epoch != st.Epoch || len(again.Ads) != len(st.Ads) ||
				(len(st.Ads) > 0 && !reflect.DeepEqual(again.Ads, st.Ads)) {
				t.Fatalf("snapshot round trip changed the state: %+v -> %+v", st, again)
			}
			if len(again.Mapping) != len(st.Mapping) || (len(st.Mapping) > 0 && !reflect.DeepEqual(again.Mapping, st.Mapping)) {
				t.Fatalf("snapshot round trip changed the mapping: %q -> %q", st.Mapping, again.Mapping)
			}
		}

		// scanWAL keeps the valid frame prefix and classifies what stops it.
		for _, in := range [][]byte{data, appendFrame(nil, data)} {
			s := scanWAL(in)
			switch s.class {
			case CorruptNone:
			case CorruptWALTorn, CorruptWALRecord:
				if s.detail == "" {
					t.Fatalf("scanWAL: %v without a detail", s.class)
				}
			default:
				t.Fatalf("scanWAL: class %v", s.class)
			}
			if s.class == CorruptNone && s.validBytes != int64(len(in)) {
				t.Fatalf("clean scan kept %d of %d bytes", s.validBytes, len(in))
			}
			var enc []byte
			for i := range s.records {
				enc = appendFrame(enc, encodeRecord(&s.records[i]))
			}
			again := scanWAL(enc)
			if again.class != CorruptNone || len(again.records) != len(s.records) ||
				(len(s.records) > 0 && !reflect.DeepEqual(again.records, s.records)) {
				t.Fatalf("record round trip: %+v -> %+v (%v)", s.records, again.records, again.class)
			}
			if int64(len(s.records)) > s.validBytes/(walFrameHdrLen+1) {
				t.Fatalf("%d records out of %d valid bytes", len(s.records), s.validBytes)
			}
		}

		runtime.ReadMemStats(&after)
		// Six decodes of the input, their re-encodings and second decodes,
		// and the fuzz worker's own bookkeeping.
		if spent, limit := after.TotalAlloc-before.TotalAlloc, uint64(128*len(data)+1<<20); spent > limit {
			t.Fatalf("%d input bytes cost %d allocated bytes, limit %d", len(data), spent, limit)
		}
	})
}

// TestRecordFramesRoundTrip: records framed as the WAL writer frames them
// scan back unchanged, and a torn tail or a corrupt record body stops the
// scan at the last good frame with its class.
func TestRecordFramesRoundTrip(t *testing.T) {
	recs := []Record{
		{Op: OpInsert, Ad: corpus.NewAd(7, "cheap flights paris", corpus.Meta{BidMicros: 1200})},
		{Op: OpDelete, ID: 7, Phrase: "cheap flights paris"},
		{Op: OpInsert, Ad: corpus.NewAd(9, "hotel deals", corpus.Meta{ClickRate: 31})},
	}
	var buf []byte
	for i := range recs {
		buf = appendFrame(buf, encodeRecord(&recs[i]))
	}
	if s := scanWAL(buf); s.class != CorruptNone || !reflect.DeepEqual(s.records, recs) {
		t.Fatalf("round trip: %v, got %+v want %+v", s.class, s.records, recs)
	}
	if s := scanWAL(buf[:len(buf)-2]); s.class != CorruptWALTorn || len(s.records) != 2 {
		t.Fatalf("torn tail: %v with %d records, want CorruptWALTorn after 2", s.class, len(s.records))
	}
	bad := bytes.Clone(buf)
	bad[len(bad)-1] ^= 0xff
	if s := scanWAL(bad); s.class != CorruptWALRecord || len(s.records) != 2 {
		t.Fatalf("corrupt record: %v with %d records, want CorruptWALRecord after 2", s.class, len(s.records))
	}
}

// TestSectionCountsBoundedByElementSize pins what FuzzDurableDecoders
// found: a section whose count fit its byte length, but not that many
// encoded elements, sized a slice of 96-byte ads (a map of 52-byte
// slots) per payload byte before the first element failed to decode.
func TestSectionCountsBoundedByElementSize(t *testing.T) {
	payload := append(binary.AppendUvarint(nil, 4096), make([]byte, 4096)...)
	if _, err := decodeAds(payload); err == nil || !strings.Contains(err.Error(), "ad count 4096 overruns") {
		t.Fatalf("decodeAds: %v, want the count rejected up front", err)
	}
	if _, err := decodeMapping(payload); err == nil || !strings.Contains(err.Error(), "mapping count 4096 overruns") {
		t.Fatalf("decodeMapping: %v, want the count rejected up front", err)
	}
	// The densest legal payloads still decode: empty ads, empty entries.
	if ads, err := decodeAds(append(binary.AppendUvarint(nil, 4096/minAdBytes), make([]byte, 4096/minAdBytes*minAdBytes)...)); err != nil || len(ads) != 4096/minAdBytes {
		t.Fatalf("decodeAds of %d empty ads: %d, %v", 4096/minAdBytes, len(ads), err)
	}
	if _, err := decodeMapping(append(binary.AppendUvarint(nil, 2048), make([]byte, 4096)...)); err != nil {
		t.Fatalf("decodeMapping of 2048 empty entries: %v", err)
	}
}
