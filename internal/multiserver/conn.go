package multiserver

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ConnOpts tunes a hardened backend connection. The zero value selects
// production-safe defaults for every knob.
type ConnOpts struct {
	// Timeout is the per-exchange deadline covering the dial (when a
	// reconnect is needed), the request write, and the response read.
	// 0 selects DefaultTimeout.
	Timeout time.Duration
	// MaxRetries is how many times a failed exchange is retried on a
	// fresh connection (queries are idempotent). 0 selects
	// DefaultMaxRetries; negative disables retries.
	MaxRetries int
	// RetryBase is the first backoff delay; it doubles per attempt with
	// up to 50% added jitter, capped at RetryMax. 0 selects 10ms.
	RetryBase time.Duration
	// RetryMax caps the backoff delay. 0 selects 250ms.
	RetryMax time.Duration
	// BreakerThreshold is the consecutive-failure count that opens the
	// per-backend circuit breaker. 0 selects 5.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before
	// half-opening for a probe. 0 selects 1s.
	BreakerCooldown time.Duration
	// Seed seeds the backoff jitter so fault-injection tests are
	// deterministic. 0 selects a fixed default seed (determinism over
	// cross-process decorrelation — this is a reproduction harness).
	Seed int64
}

// Defaults for ConnOpts zero values.
const (
	DefaultTimeout    = 2 * time.Second
	DefaultMaxRetries = 2
)

func (o ConnOpts) withDefaults() ConnOpts {
	if o.Timeout == 0 {
		o.Timeout = DefaultTimeout
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = DefaultMaxRetries
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.RetryBase == 0 {
		o.RetryBase = 10 * time.Millisecond
	}
	if o.RetryMax == 0 {
		o.RetryMax = 250 * time.Millisecond
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown == 0 {
		o.BreakerCooldown = time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// ErrBreakerOpen is returned by Exchange when the backend's circuit
// breaker is open and the request failed fast without touching the wire.
var ErrBreakerOpen = errors.New("multiserver: circuit breaker open")

// isAppLevel reports whether err is an application-level response from a
// live backend (error frame, stale-epoch rejection, or deadline-expired
// answer) rather than a transport failure: no retry, no reconnect, no
// breaker penalty.
func isAppLevel(err error) bool {
	var se *ServerError
	var stale *StaleEpochError
	return errors.As(err, &se) || errors.As(err, &stale) || errors.Is(err, ErrDeadlineExpired)
}

// ConnStats counts a connection's fault-handling activity.
type ConnStats struct {
	Exchanges  uint64 // exchanges attempted (after breaker admission)
	Retries    uint64 // extra attempts beyond the first, per exchange
	Reconnects uint64 // fresh dials after the initial connect
	Failures   uint64 // exchanges that exhausted retries
	FastFails  uint64 // exchanges rejected by the open breaker
}

// Conn is a hardened connection to one frame-protocol backend: every
// exchange runs under a deadline, transport failures reconnect and retry
// with exponential backoff + jitter (queries are idempotent), and a
// per-backend circuit breaker makes a dead server cost one timeout
// rather than one per request. Conn serializes exchanges; it is safe for
// concurrent use.
//
// The socket's reader and buffers are only touched under mu, and a
// response is decoded — or copied out, for Exchange — before mu is
// released, so nothing a caller receives aliases them.
type Conn struct {
	addr    string
	opts    ConnOpts
	breaker *Breaker

	mu     sync.Mutex
	sock   *socket // nil when disconnected
	rng    *rand.Rand
	dialed bool // the initial eager dial happened

	exchanges, retries, reconnects, failures, fastFails atomic.Uint64
}

// DialConn eagerly connects to addr so configuration errors surface at
// startup; later failures reconnect lazily.
func DialConn(addr string, opts ConnOpts) (*Conn, error) {
	c := NewConn(addr, opts)
	if err := c.Dial(); err != nil {
		return nil, err
	}
	return c, nil
}

// Dial connects now, under the exchange timeout, unless the connection
// is already up. A failure leaves the Conn usable: the next exchange
// dials again.
func (c *Conn) Dial() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sock != nil {
		return nil
	}
	conn, err := net.DialTimeout("tcp", c.addr, c.opts.Timeout)
	if err != nil {
		return err
	}
	c.sock = newSocket(conn)
	c.dialed = true
	return nil
}

// NewConn returns a Conn that dials lazily on first use — useful for
// replica sets where a replica may be down at startup.
func NewConn(addr string, opts ConnOpts) *Conn {
	opts = opts.withDefaults()
	return &Conn{
		addr:    addr,
		opts:    opts,
		breaker: NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown),
		rng:     rand.New(rand.NewSource(opts.Seed)),
	}
}

// Addr returns the backend address.
func (c *Conn) Addr() string { return c.addr }

// Breaker exposes the connection's circuit breaker (for health probes
// and tests).
func (c *Conn) Breaker() *Breaker { return c.breaker }

// Stats returns a snapshot of the connection's fault-handling counters.
func (c *Conn) Stats() ConnStats {
	return ConnStats{
		Exchanges:  c.exchanges.Load(),
		Retries:    c.retries.Load(),
		Reconnects: c.reconnects.Load(),
		Failures:   c.failures.Load(),
		FastFails:  c.fastFails.Load(),
	}
}

// Close closes the underlying connection, if any.
func (c *Conn) Close() {
	c.mu.Lock()
	c.dropLocked()
	c.mu.Unlock()
}

// Exchange sends one request frame and returns the response body,
// retrying on a fresh connection (with backoff) after transport
// failures. Error frames from the backend return a *ServerError without
// retrying and without tripping the breaker: the backend is alive, the
// request is bad. The returned slice is the caller's.
func (c *Conn) Exchange(req []byte) ([]byte, error) {
	return c.ExchangeDeadline(req, time.Time{})
}

// ExchangeDeadline is Exchange carrying a request deadline on the wire:
// every attempt (including retries after transport failures) re-tags
// the request with the budget remaining *now*, so a failover or hedged
// attempt inherits only what the earlier attempts left, and an attempt
// whose budget is already gone fails fast with ErrDeadlineExpired
// without touching the wire. A zero deadline sends the request untagged.
func (c *Conn) ExchangeDeadline(req []byte, deadline time.Time) ([]byte, error) {
	return c.exchangeBytes(req, deadline, false)
}

// ExchangeIDs is ExchangeDeadline for a request answered by an ID frame
// (flagged or not): the IDs are decoded straight out of the socket's
// read buffer and appended to dst, so the reply is never copied as
// bytes. dst may be nil; it must not be shared with an exchange that
// can run at the same time.
func (c *Conn) ExchangeIDs(dst []uint64, req []byte, deadline time.Time) (ids []uint64, flags byte, err error) {
	var derr error
	err = c.exchange(deadline, false,
		func(frame []byte) []byte { return append(frame, req...) },
		func(body []byte) { ids, flags, derr = appendDecodedIDs(dst, body, true) })
	if err == nil {
		err = derr
	}
	if err != nil {
		return nil, 0, err
	}
	return ids, flags, nil
}

// ExchangeRecords is ExchangeIDs for a request that asks for ad records
// (AppendRecordsRequest): the record frame is decoded out of the read
// buffer into ids and meta, index for index. Any other answer — an ID
// frame from a backend that ignored the tag included — is ErrMalformed.
func (c *Conn) ExchangeRecords(ids []uint64, meta []AdMeta, req []byte, deadline time.Time) (gotIDs []uint64, gotMeta []AdMeta, flags byte, err error) {
	var derr error
	err = c.exchange(deadline, false,
		func(frame []byte) []byte { return append(frame, req...) },
		func(body []byte) { gotIDs, gotMeta, flags, derr = appendDecodedRecords(ids, meta, body) })
	if err == nil {
		err = derr
	}
	if err != nil {
		return nil, nil, 0, err
	}
	return gotIDs, gotMeta, flags, nil
}

// ExchangeMeta runs the metadata hop for ids under deadline (zero for
// none) and returns one record per ID. The ID list is encoded into the
// socket's write buffer and the records decoded out of its read buffer.
func (c *Conn) ExchangeMeta(ids []uint64, deadline time.Time) ([]AdMeta, error) {
	var meta []AdMeta
	var derr error
	err := c.exchange(deadline, false,
		func(frame []byte) []byte { return AppendIDs(frame, ids, 0) },
		func(body []byte) { meta, derr = appendDecodedMeta([]AdMeta{}, body) })
	if err == nil {
		err = derr
	}
	if err != nil {
		return nil, err
	}
	if len(meta) != len(ids) {
		return nil, fmt.Errorf("multiserver: %d metadata records for %d ids", len(meta), len(ids))
	}
	return meta, nil
}

// ProbeDeadline is a single forced attempt against a possibly-open
// breaker: no admission check, no retries. Callers use it when every
// candidate backend fast-failed breaker-open, so refusing to transmit would
// turn stale breaker state into a query failure — e.g. a backend that
// healed within the cooldown while its peers died. Success and failure feed
// the breaker exactly like Exchange, so a successful probe closes it. The
// request deadline rides the wire; a zero deadline probes untagged.
func (c *Conn) ProbeDeadline(req []byte, deadline time.Time) ([]byte, error) {
	return c.exchangeBytes(req, deadline, true)
}

// exchangeBytes exchanges raw request bytes for a copy of the response
// body.
func (c *Conn) exchangeBytes(req []byte, deadline time.Time, probe bool) ([]byte, error) {
	var resp []byte
	err := c.exchange(deadline, probe,
		func(frame []byte) []byte { return append(frame, req...) },
		func(body []byte) { resp = append(make([]byte, 0, len(body)), body...) })
	return resp, err
}

// exchange is the retry loop behind every exchange and probe: breaker
// admission (skipped for a probe), then attempts on a fresh connection
// after each transport failure until one succeeds, the backend answers
// an application-level error, or the retries (none for a probe) run
// out. enc appends the request body to the frame under construction and
// dec consumes the response body; both run under the connection lock,
// once per attempt and once on success, and see the socket's buffers.
func (c *Conn) exchange(deadline time.Time, probe bool, enc func(frame []byte) []byte, dec func(body []byte)) error {
	if !probe && !c.breaker.Allow() {
		c.fastFails.Add(1)
		return fmt.Errorf("%w (%s)", ErrBreakerOpen, c.addr)
	}
	c.exchanges.Add(1)
	var lastErr error
	for attempt := 0; ; attempt++ {
		var remaining time.Duration
		if !deadline.IsZero() {
			if remaining = time.Until(deadline); remaining <= 0 {
				return ErrDeadlineExpired
			}
		}
		err := c.exchangeOnce(deadline, remaining, enc, dec)
		if err == nil || isAppLevel(err) {
			// The backend answered (a result, an error frame, a typed
			// stale-epoch rejection, or a deadline-expired answer): it is
			// alive, so no retry and no breaker failure.
			c.breaker.Success()
			return err
		}
		lastErr = err
		c.breaker.Failure()
		// A breaker that opened mid-retry (other goroutines failed too)
		// ends the loop: stop burning attempts on a dead backend.
		if probe || attempt >= c.opts.MaxRetries || !c.breaker.Allow() {
			break
		}
		c.retries.Add(1)
		time.Sleep(c.backoff(attempt))
	}
	c.failures.Add(1)
	if probe {
		return fmt.Errorf("multiserver: probe of %s: %w", c.addr, lastErr)
	}
	return fmt.Errorf("multiserver: exchange with %s: %w", c.addr, lastErr)
}

// backoff returns the delay before retry attempt+1: RetryBase doubled
// per attempt, capped at RetryMax, with up to 50% deterministic jitter.
func (c *Conn) backoff(attempt int) time.Duration {
	d := c.opts.RetryBase << uint(attempt)
	if d > c.opts.RetryMax || d <= 0 {
		d = c.opts.RetryMax
	}
	c.mu.Lock()
	j := time.Duration(c.rng.Int63n(int64(d)/2 + 1))
	c.mu.Unlock()
	return d + j
}

// exchangeOnce runs a single framed round trip under the per-exchange
// timeout (clamped to the request deadline when one is set), dialing
// first if there is no live connection. The socket deadline is set once,
// before the write; the next exchange overwrites it before it can fire.
func (c *Conn) exchangeOnce(reqDeadline time.Time, remaining time.Duration, enc func([]byte) []byte, dec func([]byte)) error {
	deadline := time.Now().Add(c.opts.Timeout)
	if !reqDeadline.IsZero() && reqDeadline.Before(deadline) {
		deadline = reqDeadline
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sock == nil {
		conn, err := net.DialTimeout("tcp", c.addr, time.Until(deadline))
		if err != nil {
			return err
		}
		if c.dialed {
			c.reconnects.Add(1)
		}
		c.dialed = true
		c.sock = newSocket(conn)
	}
	s := c.sock
	s.conn.SetDeadline(deadline)
	frame := s.beginFrame()
	if !reqDeadline.IsZero() {
		frame = AppendDeadlineRequest(frame, remaining, nil)
	}
	if err := s.writeFrame(enc(frame)); err != nil {
		c.dropLocked()
		return err
	}
	body, err := s.fr.readResponse()
	if err != nil {
		// An application-level error leaves the stream in sync; anything
		// else may have left half a frame behind.
		if !isAppLevel(err) {
			c.dropLocked()
		}
		return err
	}
	dec(body)
	return nil
}

// dropLocked discards the connection — and with it the reader and
// buffers, which may hold half a frame — after a transport error, so the
// next exchange starts from a clean dial. Callers hold c.mu.
func (c *Conn) dropLocked() {
	if c.sock != nil {
		c.sock.conn.Close()
		c.sock = nil
	}
}
