package multiserver

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"time"

	"adindex/internal/corpus"
)

// Frame protocol: 4-byte big-endian length, then payload. Request frames
// carry the raw request body, optionally behind a deadline tag and an
// epoch tag. Response frames carry a status byte first: statusOK followed
// by the response body, or statusError followed by a UTF-8 error message.
// The status byte is what lets a client distinguish a legitimately empty
// response from a server-side failure — without it, an error encoded as a
// zero-length frame is indistinguishable from a valid empty metadata
// response.
//
// Framing rule: a frame is assembled whole — length, tags, status, body —
// in the sending socket's write buffer and leaves in exactly one Write; it
// is read through the receiving socket's bufio.Reader and, when it fits
// that reader's buffer, decoded where it lies. Reader and buffers belong
// to the socket: they are created with it, used only by whoever holds it
// (the server's connection goroutine, or the Conn under its mutex), and
// dropped with it. A local exchange (Server.Local) carries the same
// payloads, length header aside, in pooled buffers of its own.

const (
	statusOK         = 0x00
	statusError      = 0x01
	statusStaleEpoch = 0x02
	statusExpired    = 0x03
)

const (
	// maxFrame caps a frame's payload; a longer header is refused before
	// a payload byte is read.
	maxFrame = 1 << 24
	// readBufSize is each socket's bufio.Reader buffer. A frame that fits
	// it, header included, costs no copy and usually one read.
	readBufSize = 16 << 10
	// growChunk bounds how far the buffer of a larger frame grows ahead
	// of the bytes that have arrived, so a header alone reserves at most
	// this much.
	growChunk = 64 << 10
	// keepBuf is the largest buffer a socket holds on to between frames.
	keepBuf = 1 << 20
)

// ErrFrameTooLarge is matched by errors.Is when a peer announces a frame
// above the 16 MiB cap. The stream cannot be resynchronized, so the
// connection is dropped.
var ErrFrameTooLarge = errors.New("multiserver: frame too large")

// ErrMalformed is matched by errors.Is when a frame body contradicts its
// own layout: an ID count that disagrees with the body's length, a
// metadata body that is not a whole number of records, a tag cut short.
var ErrMalformed = errors.New("multiserver: malformed frame body")

// frameReader reads frames off one socket.
type frameReader struct {
	br *bufio.Reader
	// held is how much of br's buffer the last returned frame occupies;
	// it is released on the next read, which is what keeps that frame
	// valid until then.
	held int
	big  []byte // frames that do not fit br's buffer
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, readBufSize)}
}

func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readFrame returns the next frame's payload. The slice aliases the
// reader's buffers and is valid until the next readFrame.
func (fr *frameReader) readFrame() ([]byte, error) {
	if fr.held > 0 {
		fr.br.Discard(fr.held) // buffered bytes: cannot fail
		fr.held = 0
	}
	if cap(fr.big) > keepBuf {
		fr.big = nil
	}
	hdr, err := fr.br.Peek(4)
	if err != nil {
		if len(hdr) > 0 {
			err = midFrame(err)
		}
		return nil, err
	}
	size := binary.BigEndian.Uint32(hdr)
	if size > maxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, size)
	}
	n := int(size)
	if 4+n <= fr.br.Size() {
		frame, err := fr.br.Peek(4 + n)
		if err != nil {
			return nil, midFrame(err)
		}
		fr.held = 4 + n
		return frame[4:], nil
	}
	fr.br.Discard(4)
	buf := fr.big[:0]
	for len(buf) < n {
		step := min(n-len(buf), growChunk)
		buf = slices.Grow(buf, step)
		m, err := io.ReadFull(fr.br, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+m]
		if err != nil {
			return nil, midFrame(err)
		}
	}
	fr.big = buf
	return buf, nil
}

// readResponse reads a response frame and parses it (parseResponse); the
// body is valid until the next read.
func (fr *frameReader) readResponse() ([]byte, error) {
	payload, err := fr.readFrame()
	if err != nil {
		return nil, err
	}
	return parseResponse(payload)
}

// parseResponse decodes a response payload's status byte, returning the
// body, which aliases payload, for ok payloads and the typed error for the
// others.
func parseResponse(payload []byte) ([]byte, error) {
	if len(payload) == 0 {
		return nil, errors.New("multiserver: response frame missing status byte")
	}
	switch payload[0] {
	case statusOK:
		return payload[1:], nil
	case statusError:
		return nil, &ServerError{Msg: string(payload[1:])}
	case statusStaleEpoch:
		if len(payload) != 17 {
			return nil, fmt.Errorf("multiserver: stale-epoch frame of %d bytes, want 17", len(payload))
		}
		return nil, &StaleEpochError{
			ClientEpoch: binary.BigEndian.Uint64(payload[1:9]),
			ServerEpoch: binary.BigEndian.Uint64(payload[9:17]),
		}
	case statusExpired:
		return nil, ErrDeadlineExpired
	default:
		return nil, fmt.Errorf("multiserver: unknown response status 0x%02x", payload[0])
	}
}

// socket is one TCP connection together with the frame reader and write
// buffer that live exactly as long as it does.
type socket struct {
	conn net.Conn
	fr   *frameReader
	wbuf []byte
}

func newSocket(conn net.Conn) *socket {
	return &socket{conn: conn, fr: newFrameReader(conn)}
}

// beginFrame starts a frame in the socket's write buffer: four bytes of
// length, filled in by writeFrame, to which the caller appends the payload.
func (s *socket) beginFrame() []byte { return append(s.wbuf[:0], 0, 0, 0, 0) }

// writeFrame sends a frame started with beginFrame in one Write.
func (s *socket) writeFrame(frame []byte) error {
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	if cap(frame) <= keepBuf {
		s.wbuf = frame[:0]
	} else {
		s.wbuf = nil
	}
	_, err := s.conn.Write(frame)
	return err
}

// appendErrorResponse appends the response payload for a handler error:
// a *StaleEpochError becomes a typed stale-epoch payload carrying both
// epochs, ErrDeadlineExpired the bare expired status, anything else a
// generic error payload.
func appendErrorResponse(dst []byte, herr error) []byte {
	var stale *StaleEpochError
	switch {
	case errors.As(herr, &stale):
		dst = append(dst, statusStaleEpoch)
		dst = binary.BigEndian.AppendUint64(dst, stale.ClientEpoch)
		return binary.BigEndian.AppendUint64(dst, stale.ServerEpoch)
	case errors.Is(herr, ErrDeadlineExpired):
		return append(dst, statusExpired)
	default:
		return append(append(dst, statusError), herr.Error()...)
	}
}

// Request tags. A tagged request starts with a magic byte and eight
// big-endian bytes of tag value; anything else is a legacy request whose
// whole payload is the body. A tag magic is >= 0x80, and so is the lead
// byte of any non-ASCII letter (0xEB opens every Hangul syllable of
// U+B000-U+BFFF, 0xDB the Arabic letters of U+06C0-U+06FF), so query text
// alone does not keep clear of them: a client that sends raw query text
// passes it through AppendQueryText, which does.
const (
	// epochReqMagic tags a request with the client's routing epoch. An
	// epoch-checking server serves untagged legacy requests unchecked.
	epochReqMagic = 0xEB
	// recordsReqMagic is the epoch tag of a request that asks for ad
	// records: same layout, and the answer is a record frame
	// (AppendAdRecords) in place of an ID frame. At epoch 0 it asks for
	// records and names no epoch. 0xF8-0xFF occur in no UTF-8 text.
	recordsReqMagic = epochReqMagic | 0x10
	// deadlineReqMagic tags a request with its remaining time budget.
	deadlineReqMagic = 0xDB
)

// AppendQueryText appends raw query text as a request body no tag decoder
// can take for a tag: text whose first byte is >= 0x80 goes behind one
// space, which every tokenizer drops. ASCII-led text — every legacy
// request — is appended unchanged.
func AppendQueryText(dst []byte, query string) []byte {
	if query != "" && query[0] >= 0x80 {
		dst = append(dst, ' ')
	}
	return append(dst, query...)
}

// AppendEpochRequest appends a request body tagged with the client's
// routing epoch: magic byte, 8-byte big-endian epoch, body. The body may
// also be appended by the caller afterwards.
func AppendEpochRequest(dst []byte, epoch uint64, body []byte) []byte {
	return appendEpochTag(dst, epochReqMagic, epoch, body)
}

// AppendRecordsRequest is AppendEpochRequest for a request that asks for
// ad records.
func AppendRecordsRequest(dst []byte, epoch uint64, body []byte) []byte {
	return appendEpochTag(dst, recordsReqMagic, epoch, body)
}

func appendEpochTag(dst []byte, magic byte, epoch uint64, body []byte) []byte {
	dst = append(dst, magic)
	dst = binary.BigEndian.AppendUint64(dst, epoch)
	return append(dst, body...)
}

// A deadline-tagged request is magic byte, 8-byte big-endian remaining
// budget in microseconds, body. The budget is relative (time remaining),
// not an absolute timestamp, so it survives clock skew between front end
// and backend. Deadline tagging composes outermost: the body may itself be
// an epoch-tagged request. Servers serve untagged legacy requests
// unchanged.

// AppendDeadlineRequest appends a request body tagged with the remaining
// time budget. Non-positive remaining still encodes (as zero), letting a
// server answer statusExpired rather than guess.
func AppendDeadlineRequest(dst []byte, remaining time.Duration, body []byte) []byte {
	us := max(remaining.Microseconds(), 0)
	dst = append(dst, deadlineReqMagic)
	dst = binary.BigEndian.AppendUint64(dst, uint64(us))
	return append(dst, body...)
}

// DecodeRequest is the one reader of request tags: it splits a request
// payload into the tags it carried — the deadline tag outermost, then an
// epoch or records tag — and the body behind them, which aliases payload.
// now is the local time the remaining budget is counted from. Query is
// left for the server to fill: the body is query text to an index server
// and an ID frame to the ad server. A payload that opens with no tag magic
// is a legacy request, all body; a tag cut short is ErrMalformed.
func DecodeRequest(payload []byte, now time.Time) (req Request, body []byte, err error) {
	body = payload
	if len(body) > 0 && body[0] == deadlineReqMagic {
		if len(body) < 9 {
			return Request{}, nil, fmt.Errorf("%w: deadline request of %d bytes shorter than its 9-byte header", ErrMalformed, len(body))
		}
		// A budget beyond what a Duration holds saturates instead of wrapping
		// into an arbitrary (possibly spent) one.
		us := min(binary.BigEndian.Uint64(body[1:9]), math.MaxInt64/1000)
		req.Deadline = now.Add(time.Duration(us) * time.Microsecond)
		body = body[9:]
	}
	if len(body) > 0 && (body[0] == epochReqMagic || body[0] == recordsReqMagic) {
		if len(body) < 9 {
			return Request{}, nil, fmt.Errorf("%w: epoch request of %d bytes shorter than its 9-byte header", ErrMalformed, len(body))
		}
		req.Records = body[0] == recordsReqMagic
		req.Epoch = binary.BigEndian.Uint64(body[1:9])
		// A records request at epoch 0 is a frozen route's: it names no
		// routing epoch (every table starts at 1), so it is untagged.
		req.Tagged = !req.Records || req.Epoch != 0
		body = body[9:]
	}
	return req, body, nil
}

// Result flags carried in the optional trailing byte of an ID frame.
const (
	// IDFlagTruncated marks a partial result: the backend's cost budget,
	// deadline or walk bound exhausted mid-enumeration, and the IDs are a
	// correct subset of the full match set.
	IDFlagTruncated = 1 << 0
	// IDFlagCutoff is set by no backend of this version. An older one set
	// it when it cut a long query to its 12 rarest words; its IDs are then
	// a correct subset of the full match set, which shard.NetClient reports
	// as truncated. It stays defined so such frames still decode.
	IDFlagCutoff = 1 << 1
)

// AppendIDs appends an ID frame body — the index server's response and
// the ad server's request: 4-byte big-endian count, 8 bytes per ID, and a
// trailing flags byte only when flags is non-zero, so the unflagged
// encoding stays byte-for-byte the legacy format (which DecodeIDs keeps
// accepting).
func AppendIDs(dst []byte, ids []uint64, flags byte) []byte {
	dst, body := growIDFrame(dst, len(ids), flags)
	for i, id := range ids {
		binary.BigEndian.PutUint64(body[8*i:], id)
	}
	return dst
}

// AppendAdIDs is AppendIDs over match records, for backends that answer
// straight from an index's match list.
func AppendAdIDs(dst []byte, ads []*corpus.Ad, flags byte) []byte {
	dst, body := growIDFrame(dst, len(ads), flags)
	for i, ad := range ads {
		binary.BigEndian.PutUint64(body[8*i:], ad.ID)
	}
	return dst
}

// AppendMatchIDs is AppendAdIDs over copied-out matches, the ads
// AppendAdRecords encodes, for a backend over the public index.
func AppendMatchIDs(dst []byte, ads []corpus.Ad, flags byte) []byte {
	dst, body := growIDFrame(dst, len(ads), flags)
	for i := range ads {
		binary.BigEndian.PutUint64(body[8*i:], ads[i].ID)
	}
	return dst
}

// growIDFrame extends dst by an ID frame body of n IDs with the count
// and flags filled in, and returns it with the 8n bytes the IDs go into.
func growIDFrame(dst []byte, n int, flags byte) (frame, ids []byte) {
	at, size := len(dst), 4+8*n
	if flags != 0 {
		size++
	}
	dst = slices.Grow(dst, size)[:at+size]
	binary.BigEndian.PutUint32(dst[at:], uint32(n))
	if flags != 0 {
		dst[at+size-1] = flags
	}
	return dst, dst[at+4 : at+4+8*n]
}

// idFrameCount validates an ID frame body against its own count and
// returns the count and flags. The lengths are compared in 64 bits: the
// count is attacker-controlled and count*8 wraps in 32.
func idFrameCount(data []byte, flagsOK bool) (n int, flags byte, err error) {
	if len(data) < 4 {
		return 0, 0, fmt.Errorf("%w: short ID frame (%d bytes)", ErrMalformed, len(data))
	}
	count := binary.BigEndian.Uint32(data)
	switch rest, want := uint64(len(data)-4), uint64(count)*8; {
	case rest == want:
	case flagsOK && rest == want+1:
		flags = data[len(data)-1]
	default:
		return 0, 0, fmt.Errorf("%w: ID frame length mismatch: %d ids, %d bytes", ErrMalformed, count, rest)
	}
	return int(count), flags, nil
}

// appendDecodedIDs appends the IDs of an ID frame body to dst.
func appendDecodedIDs(dst []uint64, data []byte, flagsOK bool) ([]uint64, byte, error) {
	n, flags, err := idFrameCount(data, flagsOK)
	if err != nil {
		return nil, 0, err
	}
	at := len(dst)
	dst = slices.Grow(dst, n)[:at+n]
	for i := range dst[at:] {
		dst[at+i] = binary.BigEndian.Uint64(data[4+8*i:])
	}
	return dst, flags, nil
}

// EncodeIDs is AppendIDs without flags into a fresh slice.
func EncodeIDs(ids []uint64) []byte { return AppendIDs(make([]byte, 0, 4+8*len(ids)), ids, 0) }

// DecodeIDs parses an unflagged ID frame body into a fresh slice.
func DecodeIDs(data []byte) ([]uint64, error) {
	ids, _, err := appendDecodedIDs(make([]uint64, 0, len(data)/8), data, false)
	return ids, err
}

// DecodeIDsFlags parses an ID frame body into a fresh slice, tolerating
// (and returning) the optional trailing flags byte.
func DecodeIDsFlags(data []byte) ([]uint64, byte, error) {
	return appendDecodedIDs(make([]uint64, 0, len(data)/8), data, true)
}

// AdMeta is the fixed-width per-ad metadata record served by the ad
// server (zeroes for unknown IDs).
type AdMeta struct {
	BidMicros int64
	ClickRate uint16
}

const adMetaBytes = 10

// appendMetaRecord appends one 10-byte record of a metadata frame body,
// which holds one per requested ID.
func appendMetaRecord(dst []byte, m AdMeta) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(m.BidMicros))
	return binary.BigEndian.AppendUint16(dst, m.ClickRate)
}

// appendDecodedMeta appends the records of a metadata frame body to dst.
func appendDecodedMeta(dst []AdMeta, data []byte) ([]AdMeta, error) {
	if len(data)%adMetaBytes != 0 {
		return nil, fmt.Errorf("%w: metadata frame of %d bytes not a record multiple", ErrMalformed, len(data))
	}
	dst = slices.Grow(dst, len(data)/adMetaBytes)
	for ; len(data) > 0; data = data[adMetaBytes:] {
		dst = append(dst, decodeMetaRecord(data))
	}
	return dst, nil
}

func decodeMetaRecord(rec []byte) AdMeta {
	return AdMeta{BidMicros: int64(binary.BigEndian.Uint64(rec)), ClickRate: binary.BigEndian.Uint16(rec[8:])}
}

// recordFrameMagic opens a record frame body. The first byte of an ID
// frame body is the top byte of a count that maxFrame keeps below 1<<24,
// always zero, so neither frame decodes as the other: a client that asked
// for records and got IDs (or the reverse) sees ErrMalformed, never a
// shorter or empty result.
const recordFrameMagic = 0xAD

// adRecordBytes is one match of a record frame: ID, then its AdMeta.
const adRecordBytes = 8 + adMetaBytes

// AppendAdRecords appends a record frame body — the answer of a backend
// that holds the ads to a request tagged AppendRecordsRequest: magic byte,
// 4-byte big-endian count, 18 bytes per match (ID, BidMicros, ClickRate),
// and the ID frame's trailing flags byte, present only when non-zero.
func AppendAdRecords(dst []byte, ads []corpus.Ad, flags byte) []byte {
	return appendRecords(dst, len(ads), func(i int) (uint64, AdMeta) {
		return ads[i].ID, AdMeta{BidMicros: ads[i].Meta.BidMicros, ClickRate: ads[i].Meta.ClickRate}
	}, flags)
}

// appendRecords is AppendAdRecords over n matches that record(i) reads.
func appendRecords(dst []byte, n int, record func(i int) (uint64, AdMeta), flags byte) []byte {
	size := 5 + adRecordBytes*n
	if flags != 0 {
		size++
	}
	dst = slices.Grow(dst, size)
	dst = append(dst, recordFrameMagic)
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	for i := 0; i < n; i++ {
		id, m := record(i)
		dst = binary.BigEndian.AppendUint64(dst, id)
		dst = appendMetaRecord(dst, m)
	}
	if flags != 0 {
		dst = append(dst, flags)
	}
	return dst
}

// appendDecodedRecords appends the matches of a record frame body to ids
// and meta, index for index. Like idFrameCount it compares the lengths in
// 64 bits before reserving anything.
func appendDecodedRecords(ids []uint64, meta []AdMeta, data []byte) ([]uint64, []AdMeta, byte, error) {
	if len(data) < 5 || data[0] != recordFrameMagic {
		return nil, nil, 0, fmt.Errorf("%w: not a record frame (%d bytes)", ErrMalformed, len(data))
	}
	count := binary.BigEndian.Uint32(data[1:])
	var flags byte
	switch rest, want := uint64(len(data)-5), uint64(count)*adRecordBytes; {
	case rest == want:
	case rest == want+1:
		flags = data[len(data)-1]
	default:
		return nil, nil, 0, fmt.Errorf("%w: record frame length mismatch: %d records, %d bytes", ErrMalformed, count, rest)
	}
	n := int(count)
	ids, meta = slices.Grow(ids, n), slices.Grow(meta, n)
	for rec := data[5:]; n > 0; n, rec = n-1, rec[adRecordBytes:] {
		ids = append(ids, binary.BigEndian.Uint64(rec))
		meta = append(meta, decodeMetaRecord(rec[8:]))
	}
	return ids, meta, flags, nil
}

// DecodeRecords parses a record frame body into fresh slices.
func DecodeRecords(data []byte) (ids []uint64, meta []AdMeta, flags byte, err error) {
	return appendDecodedRecords(nil, nil, data)
}
