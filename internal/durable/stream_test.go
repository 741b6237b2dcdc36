package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"adindex/internal/corpus"
)

// The snapshot stream must be byte-identical to the snapshot file format
// so handoff streams inherit exactly the file path's verification.
func TestSnapshotStreamMatchesFileFormat(t *testing.T) {
	dir := t.TempDir()
	ads := testAds(25, 7)
	mapping := testMapping()
	const gen, epoch = 3, 41
	if err := writeSnapshot(OSFS{}, dir, gen, ads, mapping, epoch); err != nil {
		t.Fatalf("writeSnapshot: %v", err)
	}
	fileBytes, err := os.ReadFile(filepath.Join(dir, snapName(gen)))
	if err != nil {
		t.Fatalf("read snapshot file: %v", err)
	}
	streamBytes := EncodeSnapshotStream(gen, ads, mapping, epoch)
	if !bytes.Equal(fileBytes, streamBytes) {
		t.Fatalf("stream encoding diverged from file format: file %d bytes, stream %d bytes", len(fileBytes), len(streamBytes))
	}

	st, err := DecodeSnapshotStream(streamBytes)
	if err != nil {
		t.Fatalf("DecodeSnapshotStream: %v", err)
	}
	if st.Epoch != epoch || st.Gen != gen {
		t.Fatalf("decoded gen/epoch = %d/%d, want %d/%d", st.Gen, st.Epoch, gen, epoch)
	}
	if !reflect.DeepEqual(st.Ads, ads) {
		t.Fatalf("decoded ads diverged")
	}
	if !reflect.DeepEqual(st.Mapping, mapping) {
		t.Fatalf("decoded mapping diverged")
	}
}

func TestSnapshotStreamRejectsCorruption(t *testing.T) {
	b := EncodeSnapshotStream(1, testAds(5, 1), nil, 9)
	b[len(b)-1] ^= 0xff // flip a payload byte: section CRC must catch it
	if _, err := DecodeSnapshotStream(b); err == nil {
		t.Fatalf("corrupted stream decoded cleanly")
	}
}

func TestRecordFramesRoundTrip(t *testing.T) {
	recs := []Record{
		{Op: OpInsert, Ad: corpus.NewAd(7, "cheap flights paris", corpus.Meta{BidMicros: 1200})},
		{Op: OpDelete, ID: 7, Phrase: "cheap flights paris"},
		{Op: OpInsert, Ad: corpus.NewAd(9, "hotel deals", corpus.Meta{ClickRate: 31})},
	}
	var buf []byte
	for i := range recs {
		buf = AppendRecordFrame(buf, &recs[i])
	}
	got, err := DecodeRecordFrames(buf)
	if err != nil {
		t.Fatalf("DecodeRecordFrames: %v", err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip diverged: got %+v want %+v", got, recs)
	}

	// A torn tail is an error on the handoff path, not a silent
	// truncation, and carries its class like every other decoder's.
	var ce *CorruptError
	if _, err := DecodeRecordFrames(buf[:len(buf)-2]); !errors.As(err, &ce) || ce.Class != CorruptWALTorn {
		t.Fatalf("torn delta stream: %v, want a CorruptWALTorn error", err)
	}
	// So is a corrupt record body.
	bad := append([]byte(nil), buf...)
	bad[len(bad)-1] ^= 0xff
	if _, err := DecodeRecordFrames(bad); !errors.As(err, &ce) || ce.Class != CorruptWALRecord {
		t.Fatalf("corrupt delta stream: %v, want a CorruptWALRecord error", err)
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
