package durable

import (
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"

	"adindex/internal/corpus"
)

// WAL frame layout (little-endian):
//
//	[0:4] payload length (uint32)
//	[4:8] CRC32C of payload
//	[8:.] payload
//
// payload: op byte (OpInsert/OpDelete) followed by the record body. Each
// Append is one Write call (and, under SyncAlways, one fsync), so an
// acknowledged batch is on disk before the caller proceeds. A crash can
// tear at most the final in-flight batch; recovery stops at the first
// bad frame and keeps everything before it.

const (
	walFrameHdrLen = 8
	// maxWALFrame bounds one record; corrupt length prefixes beyond it
	// are classified instead of driving huge allocations.
	maxWALFrame = 1 << 26
)

// Op is a WAL record type.
type Op byte

const (
	// OpInsert logs an Index.Insert.
	OpInsert Op = 1
	// OpDelete logs an Index.Delete attempt (found or not: both advance
	// the mutation epoch, so both are logged to keep epochs exact).
	OpDelete Op = 2
)

// Record is one logical mutation in the WAL.
type Record struct {
	Op Op
	// Ad is the inserted advertisement (OpInsert).
	Ad corpus.Ad
	// ID and Phrase identify the deletion target (OpDelete).
	ID     uint64
	Phrase string
}

func encodeRecord(rec *Record) []byte {
	b := []byte{byte(rec.Op)}
	switch rec.Op {
	case OpInsert:
		b = appendAd(b, &rec.Ad)
	case OpDelete:
		b = binary.AppendUvarint(b, rec.ID)
		b = appendString(b, rec.Phrase)
	}
	return b
}

func decodeRecord(payload []byte) (Record, error) {
	if len(payload) == 0 {
		return Record{}, fmt.Errorf("empty record payload")
	}
	r := &byteReader{b: payload, off: 1}
	rec := Record{Op: Op(payload[0])}
	switch rec.Op {
	case OpInsert:
		ad, err := decodeAd(r)
		if err != nil {
			return Record{}, fmt.Errorf("insert record: %w", err)
		}
		rec.Ad = ad
	case OpDelete:
		id, err := r.uvarint()
		if err != nil {
			return Record{}, fmt.Errorf("delete record: %w", err)
		}
		phrase, err := r.str()
		if err != nil {
			return Record{}, fmt.Errorf("delete record: %w", err)
		}
		rec.ID, rec.Phrase = id, phrase
	default:
		return Record{}, fmt.Errorf("unknown op %d", payload[0])
	}
	if r.remaining() != 0 {
		return Record{}, fmt.Errorf("%d trailing bytes in record", r.remaining())
	}
	return rec, nil
}

// SyncMode controls when WAL appends reach stable storage.
type SyncMode int

const (
	// SyncAlways fsyncs after every append batch: an acknowledged
	// mutation survives any crash. The default.
	SyncAlways SyncMode = iota
	// SyncNone never fsyncs on the append path (the OS flushes at its
	// leisure); Store.Sync still forces a flush. Crashes may lose the
	// most recent acknowledged mutations — opt in only when the workload
	// tolerates that.
	SyncNone
)

// appendFrame appends one WAL frame carrying payload to buf.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, checksum(payload))
	return append(buf, payload...)
}

// walWriter appends frames to the current generation's WAL.
type walWriter struct {
	f     File
	mode  SyncMode
	bytes int64
	buf   []byte
}

func (w *walWriter) append(recs ...*Record) error {
	w.buf = w.buf[:0]
	for _, rec := range recs {
		w.buf = appendFrame(w.buf, encodeRecord(rec))
	}
	if _, err := w.f.Write(w.buf); err != nil {
		return fmt.Errorf("durable: wal append: %w", err)
	}
	w.bytes += int64(len(w.buf))
	if w.mode == SyncAlways {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("durable: wal sync: %w", err)
		}
	}
	return nil
}

func (w *walWriter) sync() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("durable: wal sync: %w", err)
	}
	return nil
}

func (w *walWriter) close() error {
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return fmt.Errorf("durable: wal close-sync: %w", err)
	}
	return w.f.Close()
}

// walScan is the outcome of scanning one WAL file.
type walScan struct {
	records []Record
	// validBytes is the length of the valid frame prefix; bytes past it
	// belong to the first bad frame.
	validBytes int64
	totalBytes int64
	class      Corruption // CorruptNone, CorruptWALTorn, or CorruptWALRecord
	detail     string
}

// scanWAL parses frames until the end of data or the first bad frame.
func scanWAL(data []byte) walScan {
	s := walScan{totalBytes: int64(len(data))}
	off := 0
	for {
		rem := len(data) - off
		if rem == 0 {
			s.class = CorruptNone
			break
		}
		if rem < walFrameHdrLen {
			s.class = CorruptWALTorn
			s.detail = fmt.Sprintf("offset %d: %d bytes left, need %d-byte frame header", off, rem, walFrameHdrLen)
			break
		}
		plen := binary.LittleEndian.Uint32(data[off : off+4])
		pcrc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if int(plen) > rem-walFrameHdrLen {
			s.class = CorruptWALTorn
			s.detail = fmt.Sprintf("offset %d: frame promises %d payload bytes, %d remain", off, plen, rem-walFrameHdrLen)
			break
		}
		if plen > maxWALFrame {
			s.class = CorruptWALRecord
			s.detail = fmt.Sprintf("offset %d: implausible frame length %d", off, plen)
			break
		}
		payload := data[off+walFrameHdrLen : off+walFrameHdrLen+int(plen)]
		if got := checksum(payload); got != pcrc {
			s.class = CorruptWALRecord
			s.detail = fmt.Sprintf("offset %d: payload CRC %08x, want %08x", off, got, pcrc)
			break
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			s.class = CorruptWALRecord
			s.detail = fmt.Sprintf("offset %d: %v", off, err)
			break
		}
		s.records = append(s.records, rec)
		off += walFrameHdrLen + int(plen)
		s.validBytes = int64(off)
	}
	return s
}

// readWAL loads and scans one WAL file; a missing file reads as empty
// (the crash window between snapshot rename and WAL creation).
func readWAL(fsys FS, dir string, gen uint64) (walScan, error) {
	f, err := fsys.Open(filepath.Join(dir, walName(gen)))
	if err != nil {
		return walScan{}, err
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return walScan{}, fmt.Errorf("durable: read %s: %w", walName(gen), err)
	}
	return scanWAL(data), nil
}
