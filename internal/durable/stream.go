package durable

import (
	"encoding/binary"

	"adindex/internal/corpus"
)

// Streaming re-use of the on-disk formats for shard handoff.
//
// Online resharding moves a slice of an index from one owner to another
// in two stages: a full-state snapshot stream, then a replay of the
// mutations that arrived while the snapshot was in flight. Both stages
// reuse the durable on-disk encodings byte-for-byte — the snapshot
// stream is exactly the checksummed snapshot file format (magic, header
// CRC, per-section CRCs), and the delta stream is exactly the framed WAL
// format (length + CRC32C + record payload) — so a handoff stream gets
// the same torn-tail and corruption detection as crash recovery, and
// tooling that understands the files understands the streams.

// EncodeSnapshotStream serializes full index state (ads, optional
// mapping, mutation epoch) in the snapshot file format. The generation
// field carries the caller's tag (handoffs use the routing epoch).
func EncodeSnapshotStream(gen uint64, ads []corpus.Ad, mapping map[string][]string, epoch uint64) []byte {
	sections := []struct {
		tag     uint32
		payload []byte
	}{
		{sectionAds, encodeAds(ads)},
		{sectionMapping, encodeMapping(mapping)},
	}
	out := make([]byte, 0, snapHeaderLen)
	out = append(out, snapMagic...)
	out = binary.LittleEndian.AppendUint32(out, snapVersion)
	out = binary.LittleEndian.AppendUint64(out, gen)
	out = binary.LittleEndian.AppendUint64(out, epoch)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(sections)))
	out = binary.LittleEndian.AppendUint32(out, checksum(out))
	for _, s := range sections {
		out = binary.LittleEndian.AppendUint32(out, s.tag)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(s.payload)))
		out = binary.LittleEndian.AppendUint32(out, checksum(s.payload))
		out = append(out, s.payload...)
	}
	return out
}

// DecodeSnapshotStream verifies and decodes a snapshot stream produced
// by EncodeSnapshotStream (or read from a snapshot file). Verification
// failures return a *CorruptError classifying what is wrong.
func DecodeSnapshotStream(data []byte) (*SnapshotState, error) {
	return parseSnapshot("stream", data)
}

// AppendRecordFrame appends one WAL frame (length + CRC32C + payload)
// for rec to buf — the dual-write delta journal of a live handoff uses
// exactly the WAL's wire framing.
func AppendRecordFrame(buf []byte, rec *Record) []byte {
	payload := encodeRecord(rec)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, checksum(payload))
	return append(buf, payload...)
}

// DecodeRecordFrames parses a concatenation of WAL frames. Unlike crash
// recovery — where a torn tail is an expected artifact — a handoff
// stream was fully acknowledged by the sender, so any torn or corrupt
// frame is an error: a *CorruptError carrying the WAL class.
func DecodeRecordFrames(data []byte) ([]Record, error) {
	s := scanWAL(data)
	if s.class != CorruptNone {
		return nil, &CorruptError{File: "delta stream", Class: s.class, Detail: s.detail}
	}
	return s.records, nil
}
