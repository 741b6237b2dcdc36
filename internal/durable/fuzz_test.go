package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"adindex/internal/corpus"
)

// snapshotOf frames raw ads and mapping section payloads (nil: section
// absent) as a snapshot stream with correct CRCs, so the fuzzer reaches
// the section decoders behind the checksum without having to forge one.
func snapshotOf(ads, mapping []byte) []byte {
	var sections []byte
	n := uint32(0)
	for _, sec := range []struct {
		tag     uint32
		payload []byte
	}{{sectionAds, ads}, {sectionMapping, mapping}} {
		if sec.payload == nil {
			continue
		}
		n++
		sections = binary.LittleEndian.AppendUint32(sections, sec.tag)
		sections = binary.LittleEndian.AppendUint64(sections, uint64(len(sec.payload)))
		sections = binary.LittleEndian.AppendUint32(sections, checksum(sec.payload))
		sections = append(sections, sec.payload...)
	}
	out := append([]byte(nil), snapMagic...)
	out = binary.LittleEndian.AppendUint32(out, snapVersion)
	out = binary.LittleEndian.AppendUint64(out, 7) // gen
	out = binary.LittleEndian.AppendUint64(out, 9) // epoch
	out = binary.LittleEndian.AppendUint32(out, n)
	out = binary.LittleEndian.AppendUint32(out, checksum(out))
	return append(out, sections...)
}

// frameOf wraps a raw record payload in a WAL frame with a correct CRC.
func frameOf(payload []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, checksum(payload))
	return append(out, payload...)
}

// FuzzDurableDecoders feeds arbitrary bytes to the two decoders the
// handoff and recovery paths run over bytes this process did not just
// write: DecodeSnapshotStream and DecodeRecordFrames. Each input is
// tried as a whole stream and — framed with correct checksums — as an
// ads section, a mapping section and a record payload, so the decoders
// behind the CRCs are reached too. None may panic, rejections are typed,
// allocation stays within a constant times the input, and whatever a
// decoder accepts survives Encode and a second Decode unchanged.
func FuzzDurableDecoders(f *testing.F) {
	ads := []corpus.Ad{
		corpus.NewAd(1, "cheap used books", corpus.Meta{CampaignID: 3, BidMicros: -5, ClickRate: 9}),
		corpus.NewAd(1<<40, "running shoes", corpus.Meta{Exclusions: []string{"free", "diy"}}),
	}
	stream := EncodeSnapshotStream(4, ads, map[string][]string{"books\x00used": {"books"}}, 11)
	frames := AppendRecordFrame(nil, &Record{Op: OpInsert, Ad: ads[1]})
	frames = AppendRecordFrame(frames, &Record{Op: OpDelete, ID: 1, Phrase: "cheap used books"})
	for _, seed := range [][]byte{stream, frames, encodeAds(ads), encodeMapping(testMapping()), encodeRecord(&Record{Op: OpInsert, Ad: ads[0]})} {
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
			st, err := DecodeSnapshotStream(in)
			if err != nil {
				var ce *CorruptError
				if !errors.As(err, &ce) || ce.Class == CorruptNone {
					t.Fatalf("DecodeSnapshotStream: untyped error %v", err)
				}
				continue
			}
			again, err := DecodeSnapshotStream(EncodeSnapshotStream(st.Gen, st.Ads, st.Mapping, st.Epoch))
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

		for _, in := range [][]byte{data, frameOf(data)} {
			recs, err := DecodeRecordFrames(in)
			if err != nil {
				var ce *CorruptError
				if !errors.As(err, &ce) || (ce.Class != CorruptWALTorn && ce.Class != CorruptWALRecord) {
					t.Fatalf("DecodeRecordFrames: untyped error %v", err)
				}
				continue
			}
			var enc []byte
			for i := range recs {
				enc = AppendRecordFrame(enc, &recs[i])
			}
			again, err := DecodeRecordFrames(enc)
			if err != nil || len(again) != len(recs) || (len(recs) > 0 && !reflect.DeepEqual(again, recs)) {
				t.Fatalf("record round trip: %+v -> %+v, err %v", recs, again, err)
			}
			if len(recs) > len(in)/(walFrameHdrLen+1) {
				t.Fatalf("%d records out of %d bytes", len(recs), len(in))
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
