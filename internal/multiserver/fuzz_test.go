package multiserver

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"
	"testing/iotest"
	"time"
)

// overflowIDFrame is an ID frame body whose count, 2^29, times 8 wraps
// to zero in 32-bit arithmetic: four bytes that once passed the length
// check, reserved 4 GiB and then indexed past the end of the body.
var overflowIDFrame = []byte{0x20, 0, 0, 0}

// overflowRecordFrame is the record frame's version: a count of 2^31
// times the 18-byte record wraps to zero.
var overflowRecordFrame = []byte{recordFrameMagic, 0x80, 0, 0, 0}

func TestRecordCountOverflowRejected(t *testing.T) {
	for _, body := range [][]byte{
		overflowRecordFrame,
		append(bytes.Clone(overflowRecordFrame), IDFlagTruncated),
		{recordFrameMagic, 0, 0, 0},                                         // cut inside the count
		{0, 0, 0, 0, 0},                                                     // no magic
		AppendAdRecords(nil, testAds([]uint64{1}), 0)[:22],                  // cut inside a record
		append(AppendAdRecords(nil, testAds([]uint64{1}), IDFlagCutoff), 0), // a byte past the flags
		EncodeIDs(nil), EncodeIDs([]uint64{1, 2}), // ID frames
	} {
		if ids, meta, _, err := DecodeRecords(body); !errors.Is(err, ErrMalformed) {
			t.Errorf("DecodeRecords(%x) = %d ids, %d meta, err %v; want ErrMalformed", body, len(ids), len(meta), err)
		}
	}
	// And a record frame is never an ID frame.
	for _, n := range []int{0, 1, 4, 9} {
		body := AppendAdRecords(nil, testAds(make([]uint64, n)), 0)
		if ids, _, err := DecodeIDsFlags(body); !errors.Is(err, ErrMalformed) {
			t.Errorf("DecodeIDsFlags(record frame of %d) = %d ids, err %v; want ErrMalformed", n, len(ids), err)
		}
	}
}

func TestIDCountOverflowRejected(t *testing.T) {
	for _, body := range [][]byte{
		overflowIDFrame,
		append(bytes.Clone(overflowIDFrame), IDFlagTruncated), // the flagged arm: n*8+1
		{0x40, 0, 0, 0}, // 2^30 * 8 wraps as well
	} {
		if ids, err := DecodeIDs(body); !errors.Is(err, ErrMalformed) {
			t.Errorf("DecodeIDs(%x) = %d ids, err %v; want ErrMalformed", body, len(ids), err)
		}
		if ids, _, err := DecodeIDsFlags(body); !errors.Is(err, ErrMalformed) {
			t.Errorf("DecodeIDsFlags(%x) = %d ids, err %v; want ErrMalformed", body, len(ids), err)
		}
	}
}

// drainFrames reads a byte stream to its end as frames and, separately,
// as responses, returning the payloads of the one and the ok bodies of
// the other.
func drainFrames(open func() io.Reader) (frames, bodies [][]byte) {
	fr := newFrameReader(open())
	for {
		p, err := fr.readFrame()
		if err != nil {
			break
		}
		frames = append(frames, bytes.Clone(p))
	}
	fr = newFrameReader(open())
	for {
		p, err := fr.readResponse()
		if err == io.EOF || err == io.ErrUnexpectedEOF || errors.Is(err, ErrFrameTooLarge) {
			break // the stream ended or lost sync, as a connection would
		}
		// Anything else — a typed answer, an unknown status — arrived as
		// a whole frame, and the stream continues behind it.
		if err == nil {
			bodies = append(bodies, bytes.Clone(p))
		}
	}
	return frames, bodies
}

// FuzzFrameDecoders feeds arbitrary bytes to everything that parses what
// a peer sent: the frame and response readers (whole and a byte at a
// time), and the ID, metadata, epoch-tag and deadline-tag decoders. None
// may panic, none may allocate more than a constant times the input
// (plus the reader's fixed buffers), and whatever a decoder accepts must
// survive Append and a second Decode unchanged.
func FuzzFrameDecoders(f *testing.F) {
	frame := func(payload []byte) []byte {
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
	}
	f.Add(overflowIDFrame)
	f.Add(frame(append([]byte{statusOK}, overflowIDFrame...)))
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame))   // largest legal header, nothing behind it
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame+1)) // one past the cap
	f.Add(frame(append([]byte{statusOK}, EncodeIDsFlags([]uint64{1, 99, 1 << 40}, IDFlagCutoff)...)))
	f.Add(frame(appendErrorResponse(nil, &StaleEpochError{ClientEpoch: 3, ServerEpoch: 4})))
	f.Add(append(frame(appendErrorResponse(nil, errors.New("boom"))), frame([]byte{statusExpired})...))
	f.Add(EncodeIDs([]uint64{7}))
	f.Add(AppendMeta(nil, []AdMeta{{BidMicros: -5, ClickRate: 9}}))
	f.Add(EncodeEpochRequest(42, []byte("cheap flights")))
	f.Add(EncodeDeadlineRequest(1500, EncodeEpochRequest(7, []byte("q"))))
	f.Add([]byte{deadlineReqMagic, 1, 2})
	f.Add(overflowRecordFrame)
	f.Add(AppendAdRecords(nil, testAds([]uint64{1, 99, 1 << 40}), IDFlagTruncated))
	f.Add(AppendRecordsRequest(nil, 42, []byte("cheap flights")))
	f.Add(EncodeDeadlineRequest(1500, AppendRecordsRequest(nil, 7, []byte("q"))))
	f.Add([]byte("\xeb\x80\x80 shoes")) // text led by the epoch magic
	f.Add([]byte{recordsReqMagic, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)

		whole, wholeBodies := drainFrames(func() io.Reader { return bytes.NewReader(data) })
		slow, slowBodies := drainFrames(func() io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) })
		if !reflect.DeepEqual(whole, slow) || !reflect.DeepEqual(wholeBodies, slowBodies) {
			t.Fatalf("segmentation changed the frames: %d/%d whole, %d/%d a byte at a time",
				len(whole), len(wholeBodies), len(slow), len(slowBodies))
		}

		if ids, flags, err := DecodeIDsFlags(data); err == nil {
			again, flags2, err := DecodeIDsFlags(AppendIDs(nil, ids, flags))
			if err != nil || flags2 != flags || !reflect.DeepEqual(again, ids) {
				t.Fatalf("ID frame round trip: %v/%#x -> %v/%#x, err %v", ids, flags, again, flags2, err)
			}
			if len(ids) > len(data)/8 {
				t.Fatalf("%d ids out of %d bytes", len(ids), len(data))
			}
		} else if !errors.Is(err, ErrMalformed) {
			t.Fatalf("DecodeIDsFlags: untyped error %v", err)
		}
		if ids, err := DecodeIDs(data); err == nil {
			if !bytes.Equal(EncodeIDs(ids), data) {
				t.Fatalf("unflagged ID frame is not canonical: %x", data)
			}
		}
		if meta, err := DecodeMeta(data); err == nil {
			if !bytes.Equal(AppendMeta(nil, meta), data) {
				t.Fatalf("metadata frame is not canonical: %x", data)
			}
		} else if !errors.Is(err, ErrMalformed) {
			t.Fatalf("DecodeMeta: untyped error %v", err)
		}
		if ids, meta, flags, err := DecodeRecords(data); err == nil {
			if len(ids) != len(meta) || len(ids) > len(data)/adRecordBytes {
				t.Fatalf("%d ids and %d records out of %d bytes", len(ids), len(meta), len(data))
			}
			ids2, meta2, flags2, err := DecodeRecords(AppendAdRecords(nil, recordAds(ids, meta), flags))
			if err != nil || flags2 != flags || !reflect.DeepEqual(ids2, ids) || !reflect.DeepEqual(meta2, meta) {
				t.Fatalf("record frame round trip: %v %v/%#x -> %v %v/%#x, err %v", ids, meta, flags, ids2, meta2, flags2, err)
			}
			if _, _, err := DecodeIDsFlags(data); err == nil {
				t.Fatalf("%x decodes as a record frame and as an ID frame", data)
			}
		} else if !errors.Is(err, ErrMalformed) {
			t.Fatalf("DecodeRecords: untyped error %v", err)
		}
		// The request decoder: whatever tags it reads, re-appending them
		// in front of the body it returns decodes to the same request (and
		// to the same bytes, up to a deadline beyond what a Duration holds);
		// a tag cut short is typed; and query text sent through
		// AppendQueryText is never taken for a tag.
		now := time.Unix(1700000000, 0)
		if req, body, err := DecodeRequest(data, now); err == nil {
			var again []byte
			if !req.Deadline.IsZero() {
				again = AppendDeadlineRequest(again, req.Deadline.Sub(now), nil)
			}
			switch {
			case req.Records:
				again = AppendRecordsRequest(again, req.Epoch, nil)
			case req.Tagged:
				again = AppendEpochRequest(again, req.Epoch, nil)
			}
			again = append(again, body...)
			req2, body2, err := DecodeRequest(again, now)
			if err != nil || req2 != req || !bytes.Equal(body2, body) || len(again) != len(data) {
				t.Fatalf("request round trip: %+v %x -> %+v %x, err %v", req, body, req2, body2, err)
			}
			if req == (Request{}) && !bytes.Equal(body, data) {
				t.Fatalf("untagged request lost bytes")
			}
		} else if !errors.Is(err, ErrMalformed) {
			t.Fatalf("DecodeRequest: untyped error %v", err)
		}
		text := AppendQueryText(nil, string(data))
		if req, body, err := DecodeRequest(text, now); err != nil || req != (Request{}) || !bytes.Equal(body, text) {
			t.Fatalf("query text %x decoded as a tagged request: %+v %x, err %v", data, req, body, err)
		}

		runtime.ReadMemStats(&after)
		// Four readers with their fixed buffers and at most one growth
		// chunk each, the clones and re-encodings above, and the fuzz
		// worker's own bookkeeping.
		const fixed = 4*(readBufSize+2*growChunk) + 1<<20
		if spent, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+fixed); spent > limit {
			t.Fatalf("%d input bytes cost %d allocated bytes, limit %d", len(data), spent, limit)
		}
	})
}
