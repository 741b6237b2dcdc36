// Package multiserver reproduces the Section VII-B deployment: the
// broad-match index and the advertisement metadata reside on two different
// servers, so *every* query pays two consecutive network round trips
// (index lookup, then metadata fetch). The paper shows that even in this
// network-dominated regime the hash-based index beats the inverted-index
// baseline on CPU utilization, requests per second, and the response
// latency distribution (Figure 9).
//
// Servers here are real TCP servers (loopback) with configurable injected
// latency standing in for wire delay; the load driver is closed-loop with
// a fixed worker pool, measuring end-to-end latency per request in the
// 5 ms buckets of Figure 9.
package multiserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"adindex/internal/core"
	"adindex/internal/corpus"
	"adindex/internal/workload"
)

// Backend answers broad-match queries with matching ad IDs. CoreBackend
// wraps the hash-based index; the benchmarks and tests wrap the
// inverted-index baseline the same way.
type Backend interface {
	// MatchIDs returns the IDs of ads broad-matching the query text.
	MatchIDs(query string) []uint64
}

// CoreBackend serves from the paper's hash-based index.
type CoreBackend struct{ Index *core.Index }

// MatchIDs implements Backend.
func (b CoreBackend) MatchIDs(query string) []uint64 {
	matches := b.Index.BroadMatchText(query, nil)
	ids := make([]uint64, len(matches))
	for i, m := range matches {
		ids[i] = m.ID
	}
	return ids
}

// Frame protocol: 4-byte big-endian length, then payload. Request frames
// carry the raw request body. Response frames carry a status byte first:
// statusOK followed by the response body, or statusError followed by a
// UTF-8 error message. The status byte is what lets a client distinguish
// a legitimately empty response from a server-side failure — without it,
// an error encoded as a zero-length frame is indistinguishable from a
// valid empty metadata response.

const (
	statusOK         = 0x00
	statusError      = 0x01
	statusStaleEpoch = 0x02
	statusExpired    = 0x03
)

// ErrDeadlineExpired is the typed response for a request whose wire
// deadline had already passed when the server picked it up (or that a
// client refused to transmit because no budget remained). Like
// ServerError it is application-level: the backend is alive and the
// stream stays in sync, so clients do not retry it — the front end has
// already abandoned the query — and do not count it against the
// circuit breaker.
var ErrDeadlineExpired = errors.New("multiserver: request deadline expired")

// ServerError is an application-level error reported by a backend in an
// error frame. The backend is alive and the stream remains in sync, so
// clients do not retry these and do not count them against the circuit
// breaker.
type ServerError struct{ Msg string }

// Error implements error.
func (e *ServerError) Error() string { return "multiserver: server error: " + e.Msg }

// ErrStaleEpoch is the sentinel matched by errors.Is when a backend
// rejects a request tagged with an out-of-date routing epoch. The
// concrete error is a *StaleEpochError carrying both epochs.
var ErrStaleEpoch = errors.New("multiserver: stale routing epoch")

// StaleEpochError is the typed rejection a backend returns for a request
// tagged with a routing epoch different from its own. Like ServerError
// it is application-level: the backend is alive and the stream stays in
// sync, so the client must not retry blindly or count it against the
// circuit breaker — the correct reaction is to refresh the routing table
// and re-issue the request under the current epoch.
type StaleEpochError struct {
	// ClientEpoch is the epoch the rejected request carried.
	ClientEpoch uint64
	// ServerEpoch is the backend's current routing epoch.
	ServerEpoch uint64
}

// Error implements error.
func (e *StaleEpochError) Error() string {
	return fmt.Sprintf("multiserver: stale routing epoch %d (server at %d)", e.ClientEpoch, e.ServerEpoch)
}

// Is matches ErrStaleEpoch so callers can test with errors.Is.
func (e *StaleEpochError) Is(target error) bool { return target == ErrStaleEpoch }

// epochReqMagic prefixes epoch-tagged requests. Plain query texts are
// normalized words and never start with this byte, so an epoch-checking
// server can also serve untagged legacy requests unchecked.
const epochReqMagic = 0xEB

// EncodeEpochRequest tags a request body with the client's routing
// epoch: magic byte, 8-byte big-endian epoch, body.
func EncodeEpochRequest(epoch uint64, body []byte) []byte {
	buf := make([]byte, 9+len(body))
	buf[0] = epochReqMagic
	binary.BigEndian.PutUint64(buf[1:9], epoch)
	copy(buf[9:], body)
	return buf
}

// DecodeEpochRequest splits an epoch-tagged request into epoch and body,
// reporting tagged=false for legacy untagged requests.
func DecodeEpochRequest(req []byte) (epoch uint64, body []byte, tagged bool, err error) {
	if len(req) == 0 || req[0] != epochReqMagic {
		return 0, req, false, nil
	}
	if len(req) < 9 {
		return 0, nil, true, fmt.Errorf("multiserver: epoch request of %d bytes shorter than its 9-byte header", len(req))
	}
	return binary.BigEndian.Uint64(req[1:9]), req[9:], true, nil
}

// deadlineReqMagic prefixes deadline-tagged requests: magic byte,
// 8-byte big-endian remaining budget in microseconds, body. The budget
// is relative (time remaining), not an absolute timestamp, so it
// survives clock skew between front end and backend. Deadline tagging
// composes outermost: the body may itself be an epoch-tagged request.
// Plain query texts are normalized words and never start with this
// byte, so servers serve untagged legacy requests unchanged.
const deadlineReqMagic = 0xDB

// EncodeDeadlineRequest tags a request body with the remaining time
// budget. Non-positive remaining still encodes (as zero), letting a
// server answer statusExpired rather than guess.
func EncodeDeadlineRequest(remaining time.Duration, body []byte) []byte {
	us := remaining.Microseconds()
	if us < 0 {
		us = 0
	}
	buf := make([]byte, 9+len(body))
	buf[0] = deadlineReqMagic
	binary.BigEndian.PutUint64(buf[1:9], uint64(us))
	copy(buf[9:], body)
	return buf
}

// DecodeDeadlineRequest splits a deadline-tagged request into the
// remaining budget and body, reporting tagged=false for untagged
// requests.
func DecodeDeadlineRequest(req []byte) (remaining time.Duration, body []byte, tagged bool, err error) {
	if len(req) == 0 || req[0] != deadlineReqMagic {
		return 0, req, false, nil
	}
	if len(req) < 9 {
		return 0, nil, true, fmt.Errorf("multiserver: deadline request of %d bytes shorter than its 9-byte header", len(req))
	}
	return time.Duration(binary.BigEndian.Uint64(req[1:9])) * time.Microsecond, req[9:], true, nil
}

func writeFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > 1<<24 {
		return nil, fmt.Errorf("multiserver: frame of %d bytes too large", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// writeResponse frames a handler result with its status byte. A
// *StaleEpochError becomes a typed stale-epoch frame carrying both
// epochs; any other handler error becomes a generic error frame.
func writeResponse(w io.Writer, body []byte, herr error) error {
	var stale *StaleEpochError
	if errors.As(herr, &stale) {
		buf := make([]byte, 17)
		buf[0] = statusStaleEpoch
		binary.BigEndian.PutUint64(buf[1:9], stale.ClientEpoch)
		binary.BigEndian.PutUint64(buf[9:17], stale.ServerEpoch)
		return writeFrame(w, buf)
	}
	if errors.Is(herr, ErrDeadlineExpired) {
		return writeFrame(w, []byte{statusExpired})
	}
	if herr != nil {
		msg := herr.Error()
		buf := make([]byte, 1+len(msg))
		buf[0] = statusError
		copy(buf[1:], msg)
		return writeFrame(w, buf)
	}
	buf := make([]byte, 1+len(body))
	buf[0] = statusOK
	copy(buf[1:], body)
	return writeFrame(w, buf)
}

// readResponse reads a response frame and decodes its status byte,
// returning the body for ok frames and a *ServerError for error frames.
func readResponse(r io.Reader) ([]byte, error) {
	payload, err := readFrame(r)
	if err != nil {
		return nil, err
	}
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

// ServeOpts configures a Server.
type ServeOpts struct {
	// Latency is the injected per-request wire delay.
	Latency time.Duration
	// MaxConcurrent bounds the number of handlers executing at once,
	// simulating a server with limited CPU cores (the paper's index
	// server saturates at 98% CPU); 0 means unlimited. Injected latency
	// is not charged against this limit — wire delay is not CPU.
	MaxConcurrent int
}

// Server is a TCP request/response server with injected per-request
// latency and service-time accounting.
type Server struct {
	ln      net.Listener
	handler DeadlineHandler
	latency time.Duration
	cpu     chan struct{} // nil = unlimited

	busyNanos int64 // accumulated handler time (excludes injected latency)
	requests  int64
	panics    int64 // handler panics contained into error frames
	expired   int64 // requests answered statusExpired without running the handler

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// DeadlineHandler answers one request under an optional wire deadline:
// has reports whether the request carried a deadline tag, and deadline
// is the absolute local time the remaining budget translates to.
type DeadlineHandler func(req []byte, deadline time.Time, has bool) ([]byte, error)

// Serve starts a server on addr (use "127.0.0.1:0" for an ephemeral port).
// Each request frame is answered by handler(payload) after sleeping the
// injected latency (simulated wire delay). A handler error is reported to
// the client as an error frame (the connection stays up). Deadline tags
// on incoming requests are honored at the transport layer (an expired
// request is answered statusExpired without running the handler) but
// not passed through; handlers that want to stop work early use
// ServeDeadline.
func Serve(addr string, opts ServeOpts, handler func([]byte) ([]byte, error)) (*Server, error) {
	return ServeDeadline(addr, opts, func(req []byte, _ time.Time, _ bool) ([]byte, error) {
		return handler(req)
	})
}

// ServeDeadline is Serve for deadline-aware handlers: the wire
// deadline, when the request carries one, is decoded and handed to the
// handler so backends can budget their enumeration against it.
func ServeDeadline(addr string, opts ServeOpts, handler DeadlineHandler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, handler: handler, latency: opts.Latency, conns: make(map[net.Conn]struct{})}
	if opts.MaxConcurrent > 0 {
		s.cpu = make(chan struct{}, opts.MaxConcurrent)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// BusyFraction returns accumulated handler time divided by the elapsed
// duration — the CPU-utilization proxy of the Section VII-B comparison.
// Values above 1 indicate the server needed more than one core's worth of
// compute.
func (s *Server) BusyFraction(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(atomic.LoadInt64(&s.busyNanos)) / float64(elapsed.Nanoseconds())
}

// Requests returns the number of requests served.
func (s *Server) Requests() int64 { return atomic.LoadInt64(&s.requests) }

// MeanServiceTime returns the average handler execution time per request
// (excludes injected latency). Unlike throughput it is robust to CPU
// contention from unrelated load.
func (s *Server) MeanServiceTime() time.Duration {
	n := atomic.LoadInt64(&s.requests)
	if n == 0 {
		return 0
	}
	return time.Duration(atomic.LoadInt64(&s.busyNanos) / n)
}

// ResetStats zeroes the busy-time and request counters (e.g. after a
// warmup run).
func (s *Server) ResetStats() {
	atomic.StoreInt64(&s.busyNanos, 0)
	atomic.StoreInt64(&s.requests, 0)
}

// Close stops the server and waits for connection handlers to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	for {
		req, err := readFrame(conn)
		if err != nil {
			return
		}
		if s.latency > 0 {
			time.Sleep(s.latency)
		}
		remaining, body, tagged, derr := DecodeDeadlineRequest(req)
		if derr != nil {
			atomic.AddInt64(&s.requests, 1)
			if err := writeResponse(conn, nil, derr); err != nil {
				return
			}
			continue
		}
		if tagged && remaining <= 0 {
			// The front end's budget is gone: don't burn a CPU slot
			// enumerating for an abandoned query.
			atomic.AddInt64(&s.expired, 1)
			atomic.AddInt64(&s.requests, 1)
			if err := writeResponse(conn, nil, ErrDeadlineExpired); err != nil {
				return
			}
			continue
		}
		var deadline time.Time
		if tagged {
			deadline = time.Now().Add(remaining)
		}
		if s.cpu != nil {
			s.cpu <- struct{}{}
		}
		start := time.Now()
		resp, herr := s.callHandler(body, deadline, tagged)
		atomic.AddInt64(&s.busyNanos, time.Since(start).Nanoseconds())
		if s.cpu != nil {
			<-s.cpu
		}
		atomic.AddInt64(&s.requests, 1)
		if err := writeResponse(conn, resp, herr); err != nil {
			return
		}
	}
}

// callHandler runs the handler with panic containment: a panicking
// handler — a poison query, a corrupt index path — becomes a typed
// *ServerError frame on this connection instead of killing the whole
// process and every other query in flight.
func (s *Server) callHandler(body []byte, deadline time.Time, tagged bool) (resp []byte, herr error) {
	defer func() {
		if r := recover(); r != nil {
			atomic.AddInt64(&s.panics, 1)
			resp, herr = nil, &ServerError{Msg: fmt.Sprintf("handler panic: %v", r)}
		}
	}()
	return s.handler(body, deadline, tagged)
}

// Panics returns the number of handler panics contained into error
// frames.
func (s *Server) Panics() int64 { return atomic.LoadInt64(&s.panics) }

// Expired returns the number of requests answered statusExpired without
// running the handler (their wire deadline had already passed).
func (s *Server) Expired() int64 { return atomic.LoadInt64(&s.expired) }

// encodeIDs/decodeIDs serialize ID lists for the index-server response and
// the ad-server request.
func encodeIDs(ids []uint64) []byte {
	buf := make([]byte, 4+8*len(ids))
	binary.BigEndian.PutUint32(buf, uint32(len(ids)))
	for i, id := range ids {
		binary.BigEndian.PutUint64(buf[4+8*i:], id)
	}
	return buf
}

func decodeIDs(data []byte) ([]uint64, error) {
	if len(data) < 4 {
		return nil, errors.New("multiserver: short ID frame")
	}
	n := binary.BigEndian.Uint32(data)
	if uint32(len(data)-4) != n*8 {
		return nil, fmt.Errorf("multiserver: ID frame length mismatch: %d ids, %d bytes", n, len(data)-4)
	}
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = binary.BigEndian.Uint64(data[4+8*i:])
	}
	return ids, nil
}

// Result flags carried in the optional trailing byte of an ID frame.
const (
	// IDFlagTruncated marks a partial result: the backend's cost budget
	// or deadline exhausted mid-enumeration, and the IDs are a correct
	// subset of the full match set.
	IDFlagTruncated = 1 << 0
	// IDFlagCutoff marks the static MaxQueryWords cutoff: query words
	// were dropped before enumeration, which may lose matches.
	IDFlagCutoff = 1 << 1
)

// encodeIDsFlags appends a trailing flags byte to the ID frame only
// when flags is non-zero, so the unflagged encoding stays byte-for-byte
// identical to the legacy format (and legacy decodeIDs keeps accepting
// it).
func encodeIDsFlags(ids []uint64, flags byte) []byte {
	if flags == 0 {
		return encodeIDs(ids)
	}
	buf := make([]byte, 4+8*len(ids)+1)
	binary.BigEndian.PutUint32(buf, uint32(len(ids)))
	for i, id := range ids {
		binary.BigEndian.PutUint64(buf[4+8*i:], id)
	}
	buf[len(buf)-1] = flags
	return buf
}

// decodeIDsFlags parses an ID frame with or without the trailing flags
// byte.
func decodeIDsFlags(data []byte) ([]uint64, byte, error) {
	if len(data) < 4 {
		return nil, 0, errors.New("multiserver: short ID frame")
	}
	n := binary.BigEndian.Uint32(data)
	var flags byte
	switch uint32(len(data) - 4) {
	case n * 8:
	case n*8 + 1:
		flags = data[len(data)-1]
	default:
		return nil, 0, fmt.Errorf("multiserver: ID frame length mismatch: %d ids, %d bytes", n, len(data)-4)
	}
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = binary.BigEndian.Uint64(data[4+8*i:])
	}
	return ids, flags, nil
}

// EncodeIDs, DecodeIDs, and DecodeMeta expose the wire encodings for
// clients that speak the protocol directly (e.g. internal/shard).
func EncodeIDs(ids []uint64) []byte { return encodeIDs(ids) }

// EncodeIDsFlags is EncodeIDs with result flags; zero flags produce the
// legacy unflagged encoding.
func EncodeIDsFlags(ids []uint64, flags byte) []byte { return encodeIDsFlags(ids, flags) }

// DecodeIDs parses an ID-list frame body.
func DecodeIDs(data []byte) ([]uint64, error) { return decodeIDs(data) }

// DecodeIDsFlags parses an ID-list frame body, tolerating (and
// returning) the optional trailing flags byte.
func DecodeIDsFlags(data []byte) ([]uint64, byte, error) { return decodeIDsFlags(data) }

// DecodeMeta parses a metadata frame body.
func DecodeMeta(data []byte) ([]AdMeta, error) { return decodeMeta(data) }

// BudgetBackend is the deadline-aware extension of Backend: the wire
// deadline (when the request carries one) bounds the enumeration, and
// the returned flags (IDFlagTruncated/IDFlagCutoff) report what the
// backend had to leave out.
type BudgetBackend interface {
	// MatchIDsBudget matches query under the request deadline (has
	// reports whether one was carried) and returns the IDs plus result
	// flags.
	MatchIDsBudget(query string, deadline time.Time, has bool) ([]uint64, byte)
}

// NewIndexServer starts the index server: requests are query texts,
// responses are matching ad ID lists. A backend that also implements
// BudgetBackend receives the wire deadline and its result flags ride
// back in the ID frame.
func NewIndexServer(addr string, opts ServeOpts, backend Backend) (*Server, error) {
	bb, budgeted := backend.(BudgetBackend)
	return ServeDeadline(addr, opts, func(req []byte, deadline time.Time, has bool) ([]byte, error) {
		if budgeted {
			ids, flags := bb.MatchIDsBudget(string(req), deadline, has)
			return encodeIDsFlags(ids, flags), nil
		}
		return encodeIDs(backend.MatchIDs(string(req))), nil
	})
}

// EpochBackend answers broad-match queries under a routing-epoch check.
// The implementation must perform the check and the match atomically
// (under whatever lock protects its routing state) and return a
// *StaleEpochError when a tagged epoch is out of date.
type EpochBackend interface {
	// MatchIDsAtEpoch returns the matching ad IDs for query. With tagged
	// set, the request carried epoch and must be rejected with a
	// *StaleEpochError if it differs from the backend's current routing
	// epoch; untagged requests are served unchecked.
	MatchIDsAtEpoch(epoch uint64, tagged bool, query string) ([]uint64, error)
}

// NewEpochIndexServer starts an index server that participates in
// versioned routing: epoch-tagged requests (EncodeEpochRequest) are
// answered only under a matching routing epoch — otherwise the client
// gets a typed *StaleEpochError frame telling it to refresh its routing
// table and retry. Untagged requests are served unchecked, so legacy
// clients keep working against an elastic deployment (at the cost of
// missing post-cutover rebalances).
func NewEpochIndexServer(addr string, opts ServeOpts, backend EpochBackend) (*Server, error) {
	eb, budgeted := backend.(EpochBudgetBackend)
	return ServeDeadline(addr, opts, func(req []byte, deadline time.Time, has bool) ([]byte, error) {
		reqEpoch, body, tagged, err := DecodeEpochRequest(req)
		if err != nil {
			return nil, err
		}
		if budgeted {
			ids, flags, err := eb.MatchIDsAtEpochBudget(reqEpoch, tagged, string(body), deadline, has)
			if err != nil {
				return nil, err
			}
			return encodeIDsFlags(ids, flags), nil
		}
		ids, err := backend.MatchIDsAtEpoch(reqEpoch, tagged, string(body))
		if err != nil {
			return nil, err
		}
		return encodeIDs(ids), nil
	})
}

// EpochBudgetBackend is the deadline-aware extension of EpochBackend,
// mirroring BudgetBackend for epoch-checked deployments.
type EpochBudgetBackend interface {
	MatchIDsAtEpochBudget(epoch uint64, tagged bool, query string, deadline time.Time, has bool) ([]uint64, byte, error)
}

// AdMeta is the fixed-width per-ad metadata record served by the ad
// server (zeroes for unknown IDs).
type AdMeta struct {
	BidMicros int64
	ClickRate uint16
}

const adMetaBytes = 10

func encodeMeta(meta []AdMeta) []byte {
	buf := make([]byte, adMetaBytes*len(meta))
	for i, m := range meta {
		binary.BigEndian.PutUint64(buf[adMetaBytes*i:], uint64(m.BidMicros))
		binary.BigEndian.PutUint16(buf[adMetaBytes*i+8:], m.ClickRate)
	}
	return buf
}

func decodeMeta(data []byte) ([]AdMeta, error) {
	if len(data)%adMetaBytes != 0 {
		return nil, fmt.Errorf("multiserver: metadata frame of %d bytes not a record multiple", len(data))
	}
	meta := make([]AdMeta, len(data)/adMetaBytes)
	for i := range meta {
		meta[i].BidMicros = int64(binary.BigEndian.Uint64(data[adMetaBytes*i:]))
		meta[i].ClickRate = binary.BigEndian.Uint16(data[adMetaBytes*i+8:])
	}
	return meta, nil
}

// NewAdServer starts the metadata server: requests are ad ID lists,
// responses are fixed-width metadata records (bid price and click rate per
// ID; zeroes for unknown IDs). A malformed ID request is answered with an
// error frame — never an empty success, which a client could not tell
// apart from a valid zero-ID response.
func NewAdServer(addr string, opts ServeOpts, ads []corpus.Ad) (*Server, error) {
	byID := make(map[uint64]*corpus.Ad, len(ads))
	for i := range ads {
		byID[ads[i].ID] = &ads[i]
	}
	return Serve(addr, opts, func(req []byte) ([]byte, error) {
		ids, err := decodeIDs(req)
		if err != nil {
			return nil, err
		}
		meta := make([]AdMeta, len(ids))
		for i, id := range ids {
			if ad, ok := byID[id]; ok {
				meta[i] = AdMeta{BidMicros: ad.Meta.BidMicros, ClickRate: ad.Meta.ClickRate}
			}
		}
		return encodeMeta(meta), nil
	})
}

// Client issues end-to-end queries: index server, then ad server. Both
// hops run over hardened Conns (per-exchange deadlines, reconnect, bounded
// retry with backoff, per-backend circuit breakers).
type Client struct {
	index *Conn
	ad    *Conn
}

// Dial connects to both servers with default ConnOpts.
func Dial(indexAddr, adAddr string) (*Client, error) {
	return DialOpts(indexAddr, adAddr, ConnOpts{})
}

// DialOpts connects to both servers. The initial dials are eager so a
// misconfigured address fails here; subsequent failures reconnect lazily.
func DialOpts(indexAddr, adAddr string, opts ConnOpts) (*Client, error) {
	ic, err := DialConn(indexAddr, opts)
	if err != nil {
		return nil, err
	}
	ac, err := DialConn(adAddr, opts)
	if err != nil {
		ic.Close()
		return nil, err
	}
	return &Client{index: ic, ad: ac}, nil
}

// Close closes both connections.
func (c *Client) Close() {
	c.index.Close()
	c.ad.Close()
}

// IndexConn and AdConn expose the per-backend hardened connections (for
// stats and breaker inspection).
func (c *Client) IndexConn() *Conn { return c.index }

// AdConn returns the ad-server connection.
func (c *Client) AdConn() *Conn { return c.ad }

// QueryIDs runs the index hop only, returning matching ad IDs.
func (c *Client) QueryIDs(query string) ([]uint64, error) {
	resp, err := c.index.Exchange([]byte(query))
	if err != nil {
		return nil, err
	}
	return decodeIDs(resp)
}

// FetchMeta runs the metadata hop for ids, returning one record per ID.
func (c *Client) FetchMeta(ids []uint64) ([]AdMeta, error) {
	resp, err := c.ad.Exchange(encodeIDs(ids))
	if err != nil {
		return nil, err
	}
	meta, err := decodeMeta(resp)
	if err != nil {
		return nil, err
	}
	if len(meta) != len(ids) {
		return nil, fmt.Errorf("multiserver: %d metadata records for %d ids", len(meta), len(ids))
	}
	return meta, nil
}

// Query runs one end-to-end retrieval and returns the matching ad IDs.
func (c *Client) Query(query string) ([]uint64, error) {
	ids, err := c.QueryIDs(query)
	if err != nil {
		return nil, err
	}
	if _, err := c.FetchMeta(ids); err != nil {
		return nil, err
	}
	return ids, nil
}

// LatencyBucketMillis is the Figure 9 histogram bucket width.
const LatencyBucketMillis = 5

// LoadResult summarizes a closed-loop load run.
type LoadResult struct {
	Requests int
	// Errors counts queries that failed after the client's own retries
	// were exhausted. Failed queries are excluded from the latency
	// histogram and throughput, so transient faults skew neither.
	Errors     int
	Elapsed    time.Duration
	Throughput float64 // requests per second
	// Buckets[i] counts requests with latency in [5i, 5(i+1)) ms.
	Buckets []int
	// MeanLatency is the mean end-to-end latency.
	MeanLatency time.Duration
	// IndexBusyFraction is the index server's CPU-utilization proxy.
	IndexBusyFraction float64
}

// FractionWithin returns the fraction of requests completing within d.
func (r *LoadResult) FractionWithin(d time.Duration) float64 {
	if r.Requests == 0 {
		return 0
	}
	limit := int(d / (LatencyBucketMillis * time.Millisecond))
	n := 0
	for i := 0; i < limit && i < len(r.Buckets); i++ {
		n += r.Buckets[i]
	}
	return float64(n) / float64(r.Requests)
}

// RunLoad drives numRequests queries from the stream through the two-server
// deployment using a closed loop of `concurrency` workers, measuring the
// latency distribution and throughput. indexSrv is consulted for the busy
// fraction.
//
// A worker that hits a transient error records it in LoadResult.Errors,
// discards its client, and continues with a fresh connection — one flaky
// exchange must not silently remove a worker and skew the measured
// throughput and latency for the rest of the run. RunLoad returns an
// error only when every worker failed and nothing succeeded.
func RunLoad(indexSrv *Server, adAddr string, stream []*workload.Query, concurrency int, indexAddr string) (*LoadResult, error) {
	if concurrency < 1 {
		concurrency = 1
	}
	var mu sync.Mutex
	res := &LoadResult{}
	var totalLatency time.Duration
	next := int64(-1)
	var firstErr error

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var client *Client
			defer func() {
				if client != nil {
					client.Close()
				}
			}()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(stream) {
					return
				}
				if client == nil {
					c, err := Dial(indexAddr, adAddr)
					if err != nil {
						mu.Lock()
						res.Errors++
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						continue
					}
					client = c
				}
				q := joinQuery(stream[i].Words)
				t0 := time.Now()
				if _, err := client.Query(q); err != nil {
					client.Close()
					client = nil
					mu.Lock()
					res.Errors++
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					continue
				}
				lat := time.Since(t0)
				bucket := int(lat / (LatencyBucketMillis * time.Millisecond))
				mu.Lock()
				for len(res.Buckets) <= bucket {
					res.Buckets = append(res.Buckets, 0)
				}
				res.Buckets[bucket]++
				res.Requests++
				totalLatency += lat
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	if res.Requests == 0 && firstErr != nil {
		return nil, firstErr
	}
	if res.Requests > 0 {
		res.Throughput = float64(res.Requests) / res.Elapsed.Seconds()
		res.MeanLatency = totalLatency / time.Duration(res.Requests)
	}
	res.IndexBusyFraction = indexSrv.BusyFraction(res.Elapsed)
	return res, nil
}

func joinQuery(words []string) string {
	out := ""
	for i, w := range words {
		if i > 0 {
			out += " "
		}
		out += w
	}
	return out
}
