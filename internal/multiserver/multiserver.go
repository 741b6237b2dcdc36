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
//
// The transport (frame.go) is built so that it does not itself become the
// network cost the experiment is about: a frame is assembled whole in its
// socket's write buffer and sent in one Write, and read through the
// socket's bufio.Reader and decoded in place; see the framing rule there
// for who owns those buffers and what a caller may keep.
package multiserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"adindex/internal/core"
	"adindex/internal/corpus"
	"adindex/internal/costmodel"
	"adindex/internal/textnorm"
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
	sc := GetMatchScratch()
	defer sc.Release()
	matches := sc.BroadMatch(b.Index, query, nil)
	ids := make([]uint64, len(matches))
	for i, m := range matches {
		ids[i] = m.ID
	}
	return ids
}

// appendMatchIDs is MatchIDs appending an ID frame body to dst.
func (b CoreBackend) appendMatchIDs(dst []byte, query string) []byte {
	sc := GetMatchScratch()
	defer sc.Release()
	return AppendAdIDs(dst, sc.BroadMatch(b.Index, query, nil), 0)
}

// MatchScratch holds the reusable buffers of one broad-match request
// against a core.Index — the query's word set, the enumeration scratch
// and the match list — so a backend serving from an index allocates
// nothing per request once its scratches are warm. Get one per request
// and Release it when the matches have been encoded.
type MatchScratch struct {
	words   []string
	core    core.Scratch
	matches []*corpus.Ad
}

var matchScratchPool = sync.Pool{New: func() any { return new(MatchScratch) }}

// GetMatchScratch takes a scratch from the pool.
func GetMatchScratch() *MatchScratch { return matchScratchPool.Get().(*MatchScratch) }

// BroadMatch returns the ads of ix broad-matching the raw query text,
// ID-ordered, charging the access accounting to counters when non-nil.
// The slice belongs to the scratch (the caller may reorder or shorten
// it) and the records to the index: both are valid until Release or the
// index's next mutation, whichever comes first.
func (sc *MatchScratch) BroadMatch(ix *core.Index, query string, counters *costmodel.Counters) []*corpus.Ad {
	sc.words = textnorm.AppendWordSet(sc.words[:0], query)
	sc.matches = ix.AppendBroadMatch(sc.matches[:0], sc.words, counters, &sc.core)
	return sc.matches
}

// Release returns the scratch to the pool with every reference into the
// query text and the index cleared, so a pooled scratch pins neither.
func (sc *MatchScratch) Release() {
	clear(sc.words[:cap(sc.words)])
	sc.core.Reset()
	clear(sc.matches[:cap(sc.matches)])
	matchScratchPool.Put(sc)
}

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
	handler appendHandler
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
// is the absolute local time the remaining budget translates to. req
// aliases the connection's read buffer and must not be retained past
// the call.
type DeadlineHandler func(req []byte, deadline time.Time, has bool) ([]byte, error)

// appendHandler is the form every handler runs in: it appends the
// response body to dst — the connection's frame under construction — and
// returns the extended slice, so the body is written where it is sent
// from. On error whatever it appended is discarded.
type appendHandler func(dst, req []byte, deadline time.Time, has bool) ([]byte, error)

// Serve starts a server on addr (use "127.0.0.1:0" for an ephemeral port).
// Each request frame is answered by handler(payload) after sleeping the
// injected latency (simulated wire delay). A handler error is reported to
// the client as an error frame (the connection stays up). Deadline tags
// on incoming requests are honored at the transport layer (an expired
// request is answered statusExpired without running the handler) but
// not passed through; handlers that want to stop work early use
// ServeDeadline. The payload aliases the connection's read buffer and
// must not be retained past the call.
func Serve(addr string, opts ServeOpts, handler func([]byte) ([]byte, error)) (*Server, error) {
	return ServeDeadline(addr, opts, func(req []byte, _ time.Time, _ bool) ([]byte, error) {
		return handler(req)
	})
}

// ServeDeadline is Serve for deadline-aware handlers: the wire
// deadline, when the request carries one, is decoded and handed to the
// handler so backends can budget their enumeration against it.
func ServeDeadline(addr string, opts ServeOpts, handler DeadlineHandler) (*Server, error) {
	return serve(addr, opts, func(dst, req []byte, deadline time.Time, has bool) ([]byte, error) {
		resp, err := handler(req, deadline, has)
		return append(dst, resp...), err
	})
}

func serve(addr string, opts ServeOpts, handler appendHandler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return serveOn(ln, opts, handler), nil
}

// serveOn starts a server on a listener it takes ownership of.
func serveOn(ln net.Listener, opts ServeOpts, handler appendHandler) *Server {
	s := &Server{ln: ln, handler: handler, latency: opts.Latency, conns: make(map[net.Conn]struct{})}
	if opts.MaxConcurrent > 0 {
		s.cpu = make(chan struct{}, opts.MaxConcurrent)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
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

// handleConn serves one connection: read a frame, build the response in
// the socket's write buffer, send it in one Write.
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	sock := newSocket(conn)
	for {
		req, err := sock.fr.readFrame()
		if err != nil {
			return
		}
		if s.latency > 0 {
			time.Sleep(s.latency)
		}
		frame := sock.beginFrame()
		var resp []byte
		remaining, body, tagged, herr := DecodeDeadlineRequest(req)
		switch {
		case herr != nil:
		case tagged && remaining <= 0:
			// The front end's budget is gone: don't burn a CPU slot
			// enumerating for an abandoned query.
			atomic.AddInt64(&s.expired, 1)
			herr = ErrDeadlineExpired
		default:
			var deadline time.Time
			if tagged {
				deadline = time.Now().Add(remaining)
			}
			if s.cpu != nil {
				s.cpu <- struct{}{}
			}
			start := time.Now()
			resp, herr = s.callHandler(append(frame, statusOK), body, deadline, tagged)
			atomic.AddInt64(&s.busyNanos, time.Since(start).Nanoseconds())
			if s.cpu != nil {
				<-s.cpu
			}
		}
		atomic.AddInt64(&s.requests, 1)
		if herr != nil {
			resp = appendErrorResponse(frame, herr)
		}
		if err := sock.writeFrame(resp); err != nil {
			return
		}
	}
}

// callHandler runs the handler with panic containment: a panicking
// handler — a poison query, a corrupt index path — becomes a typed
// *ServerError frame on this connection instead of killing the whole
// process and every other query in flight.
func (s *Server) callHandler(dst, body []byte, deadline time.Time, tagged bool) (resp []byte, herr error) {
	defer func() {
		if r := recover(); r != nil {
			atomic.AddInt64(&s.panics, 1)
			resp, herr = nil, &ServerError{Msg: fmt.Sprintf("handler panic: %v", r)}
		}
	}()
	return s.handler(dst, body, deadline, tagged)
}

// Panics returns the number of handler panics contained into error
// frames.
func (s *Server) Panics() int64 { return atomic.LoadInt64(&s.panics) }

// Expired returns the number of requests answered statusExpired without
// running the handler (their wire deadline had already passed).
func (s *Server) Expired() int64 { return atomic.LoadInt64(&s.expired) }

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
// back in the ID frame; a CoreBackend writes its IDs straight into the
// response frame.
func NewIndexServer(addr string, opts ServeOpts, backend Backend) (*Server, error) {
	bb, budgeted := backend.(BudgetBackend)
	cb, direct := backend.(CoreBackend)
	return serve(addr, opts, func(dst, req []byte, deadline time.Time, has bool) ([]byte, error) {
		switch {
		case budgeted:
			ids, flags := bb.MatchIDsBudget(string(req), deadline, has)
			return AppendIDs(dst, ids, flags), nil
		case direct:
			return cb.appendMatchIDs(dst, string(req)), nil
		}
		return AppendIDs(dst, backend.MatchIDs(string(req)), 0), nil
	})
}

// EpochBackend answers broad-match queries under a routing-epoch check.
// The implementation must perform the check and the match atomically
// (under whatever lock protects its routing state) and return a
// *StaleEpochError when a tagged epoch is out of date.
type EpochBackend interface {
	// AppendMatchAtEpoch appends the answer to query to dst, the response
	// frame under construction: a record frame body (AppendAdRecords) when
	// records is set — the matches' metadata read under the same lock as
	// the match — and an ID frame body (AppendIDs, AppendAdIDs) otherwise.
	// A backend that holds no ad records answers a records request with an
	// error. With tagged set, the request carried epoch and must be
	// rejected with a *StaleEpochError if it differs from the backend's
	// current routing epoch; untagged requests are served unchecked.
	AppendMatchAtEpoch(dst []byte, epoch uint64, tagged, records bool, query string) ([]byte, error)
}

// NewEpochIndexServer starts an index server that participates in
// versioned routing: epoch-tagged requests (AppendEpochRequest,
// AppendRecordsRequest) are answered only under a matching routing epoch
// — otherwise the client gets a typed *StaleEpochError frame telling it
// to refresh its routing table and retry. Untagged requests are served
// unchecked, so legacy clients keep working against an elastic deployment
// (at the cost of missing post-cutover rebalances).
func NewEpochIndexServer(addr string, opts ServeOpts, backend EpochBackend) (*Server, error) {
	return serve(addr, opts, func(dst, req []byte, _ time.Time, _ bool) ([]byte, error) {
		reqEpoch, body, tagged, records, err := DecodeEpochRequest(req)
		if err != nil {
			return nil, err
		}
		return backend.AppendMatchAtEpoch(dst, reqEpoch, tagged, records, string(body))
	})
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
	return serve(addr, opts, func(dst, req []byte, _ time.Time, _ bool) ([]byte, error) {
		n, _, err := idFrameCount(req, false)
		if err != nil {
			return nil, err
		}
		for ids := req[4:]; n > 0; n, ids = n-1, ids[8:] {
			var m AdMeta
			if ad, ok := byID[binary.BigEndian.Uint64(ids)]; ok {
				m = AdMeta{BidMicros: ad.Meta.BidMicros, ClickRate: ad.Meta.ClickRate}
			}
			dst = appendMetaRecord(dst, m)
		}
		return dst, nil
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
	resp, err := c.index.Exchange(AppendQueryText(nil, query))
	if err != nil {
		return nil, err
	}
	return DecodeIDs(resp)
}

// FetchMeta runs the metadata hop for ids, returning one record per ID.
func (c *Client) FetchMeta(ids []uint64) ([]AdMeta, error) {
	return c.ad.ExchangeMeta(ids, time.Time{})
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
