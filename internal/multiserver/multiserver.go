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
	"adindex/internal/textnorm"
	"adindex/internal/workload"
)

// Request is one decoded index-server request: the query and every tag the
// payload carried. DecodeRequest is the only reader of the tags.
type Request struct {
	// Query is the raw query text.
	Query string
	// Epoch is the client's routing epoch; meaningful when Tagged.
	Epoch uint64
	// Tagged reports that the request carried a routing epoch. A backend
	// with a routing table rejects a tagged request whose epoch differs
	// from its own with a *StaleEpochError; an untagged request, and any
	// request to a backend without a table, is served unchecked.
	Tagged bool
	// Records asks for a record frame (AppendAdRecords) — the matches'
	// metadata with their IDs — in place of an ID frame. A backend that
	// holds no ad records answers it with an error.
	Records bool
	// Deadline is the absolute local time the request's remaining budget
	// translates to; zero when it carried none. It bounds the enumeration,
	// and what that leaves out is reported in the frame's flags.
	Deadline time.Time
}

// Backend answers broad-match requests. Every index server is a
// NewIndexServer over one: CoreBackend serves the paper's hash-based
// index, cmd/adserve the public adindex.Index, package shard one position
// of an elastic cluster, and tests and the inverted-index baselines wrap
// a function in BackendFunc.
type Backend interface {
	// AppendMatch appends the answer to req to dst, the response frame
	// under construction, and returns the extended slice: an ID frame body
	// (AppendIDs, AppendAdIDs), or a record frame body for a records
	// request, with IDFlagTruncated/IDFlagCutoff saying what the answer
	// leaves out. On error whatever it appended is discarded and the
	// client gets the error's typed frame.
	AppendMatch(dst []byte, req Request) ([]byte, error)
}

// BackendFunc adapts a function to Backend.
type BackendFunc func(dst []byte, req Request) ([]byte, error)

// AppendMatch implements Backend.
func (f BackendFunc) AppendMatch(dst []byte, req Request) ([]byte, error) { return f(dst, req) }

// CoreBackend serves from the paper's hash-based index: the matches go
// from the index's records straight into the response frame.
type CoreBackend struct{ Index *core.Index }

// AppendMatch implements Backend.
func (b CoreBackend) AppendMatch(dst []byte, req Request) ([]byte, error) {
	sc := GetMatchScratch()
	defer sc.Release()
	sc.BroadMatch(b.Index, req.Query, req.Deadline)
	return sc.AppendReply(dst, req), nil
}

// MatchScratch holds the reusable buffers of one broad-match request
// against a core.Index — the query's word set, the enumeration scratch
// and the matching records — so a backend serving from an index allocates
// nothing per request once its scratches are warm: no ad is built, the
// reply is encoded from the index's columns. Get one per request and
// Release it when the matches have been encoded.
type MatchScratch struct {
	words  []string
	core   core.Scratch
	budget core.Budget
	ix     *core.Index
	refs   []core.Ref
}

var matchScratchPool = sync.Pool{New: func() any { return new(MatchScratch) }}

// GetMatchScratch takes a scratch from the pool.
func GetMatchScratch() *MatchScratch { return matchScratchPool.Get().(*MatchScratch) }

// BroadMatch finds the records of ix broad-matching the raw query text and
// returns how many there are. The enumeration stops at deadline when that
// is non-zero; what it then left out, and whether the MaxQueryWords
// cutoff shortened the query, is what AppendReply flags. The matches are
// read off ix by AppendReply, so ix must not change in between.
func (sc *MatchScratch) BroadMatch(ix *core.Index, query string, deadline time.Time) int {
	sc.words = textnorm.AppendWordSet(sc.words[:0], query)
	sc.budget.Init(0, deadline)
	sc.ix = ix
	sc.refs = ix.AppendBroadRefs(sc.refs[:0], sc.words, nil, &sc.core, &sc.budget)
	return len(sc.refs)
}

// AppendReply appends the frame body that answers req with the last
// BroadMatch's matches, or with none: a record frame for a records request
// and an ID frame otherwise, flagged with what that match left out.
func (sc *MatchScratch) AppendReply(dst []byte, req Request) []byte {
	var flags byte
	if sc.budget.Exhausted() {
		flags |= IDFlagTruncated
	}
	if sc.budget.CutoffApplied() {
		flags |= IDFlagCutoff
	}
	ix, refs := sc.ix, sc.refs
	if req.Records {
		return appendRecords(dst, len(refs), func(i int) (uint64, AdMeta) {
			bid, ctr := ix.Bid(refs[i])
			return ix.ID(refs[i]), AdMeta{BidMicros: bid, ClickRate: ctr}
		}, flags)
	}
	dst, body := growIDFrame(dst, len(refs), flags)
	for i, r := range refs {
		binary.BigEndian.PutUint64(body[8*i:], ix.ID(r))
	}
	return dst
}

// Release returns the scratch to the pool with every reference into the
// query text and the index cleared, so a pooled scratch pins neither, and
// with no match's flags or records left behind.
func (sc *MatchScratch) Release() {
	clear(sc.words[:cap(sc.words)])
	sc.core.Reset()
	sc.budget = core.Budget{}
	sc.ix = nil
	sc.refs = sc.refs[:0]
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

// appendHandler answers one request: it appends the response body to dst
// — the connection's frame under construction — and returns the extended
// slice, so the body is written where it is sent from. req holds the
// request's tags and body what followed them; body aliases the connection's
// read buffer and must not be retained past the call. On error whatever
// the handler appended is discarded.
type appendHandler func(dst []byte, req Request, body []byte) ([]byte, error)

// serve starts a server on addr (use "127.0.0.1:0" for an ephemeral port).
// Each request frame is decoded (DecodeRequest) and answered by handler
// after sleeping the injected latency (simulated wire delay). A handler
// error is reported to the client as an error frame (the connection stays
// up), and a request whose deadline has already passed is answered
// statusExpired without running the handler.
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
		payload, err := sock.fr.readFrame()
		if err != nil {
			return
		}
		if s.latency > 0 {
			time.Sleep(s.latency)
		}
		frame := sock.beginFrame()
		var resp []byte
		now := time.Now()
		req, body, herr := DecodeRequest(payload, now)
		switch {
		case herr != nil:
		case !req.Deadline.IsZero() && !req.Deadline.After(now):
			// The front end's budget is gone: don't burn a CPU slot
			// enumerating for an abandoned query.
			atomic.AddInt64(&s.expired, 1)
			herr = ErrDeadlineExpired
		default:
			if s.cpu != nil {
				s.cpu <- struct{}{}
			}
			start := time.Now()
			resp, herr = s.callHandler(append(frame, statusOK), req, body)
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
func (s *Server) callHandler(dst []byte, req Request, body []byte) (resp []byte, herr error) {
	defer func() {
		if r := recover(); r != nil {
			atomic.AddInt64(&s.panics, 1)
			resp, herr = nil, &ServerError{Msg: fmt.Sprintf("handler panic: %v", r)}
		}
	}()
	return s.handler(dst, req, body)
}

// Panics returns the number of handler panics contained into error
// frames.
func (s *Server) Panics() int64 { return atomic.LoadInt64(&s.panics) }

// Expired returns the number of requests answered statusExpired without
// running the handler (their wire deadline had already passed).
func (s *Server) Expired() int64 { return atomic.LoadInt64(&s.expired) }

// NewIndexServer starts an index server: a request is query text behind
// its tags, and the response is whatever frame body backend appends for it
// — matching ad IDs, or ad records for a records request. It is the only
// index-server constructor: the whole request reaches every backend.
func NewIndexServer(addr string, opts ServeOpts, backend Backend) (*Server, error) {
	return serve(addr, opts, func(dst []byte, req Request, body []byte) ([]byte, error) {
		req.Query = string(body)
		return backend.AppendMatch(dst, req)
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
	return serve(addr, opts, func(dst []byte, _ Request, body []byte) ([]byte, error) {
		n, _, err := idFrameCount(body, false)
		if err != nil {
			return nil, err
		}
		for ids := body[4:]; n > 0; n, ids = n-1, ids[8:] {
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

// Dial connects to both servers with default ConnOpts. The initial dials
// are eager so a misconfigured address fails here; subsequent failures
// reconnect lazily.
func Dial(indexAddr, adAddr string) (*Client, error) {
	ic, err := DialConn(indexAddr, ConnOpts{})
	if err != nil {
		return nil, err
	}
	ac, err := DialConn(adAddr, ConnOpts{})
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

// IndexConn exposes the index server's hardened connection (for stats and
// breaker inspection).
func (c *Client) IndexConn() *Conn { return c.index }

// QueryIDs runs the index hop only, returning matching ad IDs. This
// client has nowhere to report the frame's flags (a backend's
// MaxQueryWords cutoff); shard.NetClient does.
func (c *Client) QueryIDs(query string) ([]uint64, error) {
	resp, err := c.index.Exchange(AppendQueryText(nil, query))
	if err != nil {
		return nil, err
	}
	ids, _, err := DecodeIDsFlags(resp)
	return ids, err
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
