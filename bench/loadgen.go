package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clients is the number of keep-alive connections and client goroutines
// driving reads. The box has two cores; more clients than cores would
// measure the scheduler.
const clients = 2

// probeEvery makes every fifth request a client sends a reference probe:
// GET /healthz, the same server's empty exchange over the same
// connection. The host slows every exchange on this box by up to a factor
// of two for seconds to minutes at a time (a register-only spin loop
// keeps its speed, so it is memory and the kernel path that are shared);
// searches and probes slow together, and their ratio repeats where the
// times themselves do not (README.md, "Why the metrics are ratios").
const probeEvery = 5

var probeRequest = []byte("GET /healthz HTTP/1.1\r\nHost: adserve\r\n\r\n")

// isProbe reports whether a client's i-th request (from 0) is a probe.
func isProbe(i int) bool { return i%probeEvery == probeEvery-1 }

// requestTimeout bounds one exchange; a reply slower than this counts as
// a failed request and the connection is redialled.
const requestTimeout = 5 * time.Second

// conn is one keep-alive HTTP/1.1 connection driven synchronously: write
// a prebuilt request, parse one response. No transport goroutines sit
// between the timestamps and the socket.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	body bytes.Buffer // last response body; valid until the next do
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, requestTimeout)
	if err != nil {
		return nil, err
	}
	return &conn{addr: addr, c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
	}
}

// do sends req and reads the reply into c.body, returning the status
// code. After a transport error the connection is redialled so the next
// request starts clean.
func (c *conn) do(req []byte) (int, error) {
	status, err := c.exchange(req)
	if err != nil {
		c.c.Close()
		if nc, derr := net.DialTimeout("tcp", c.addr, requestTimeout); derr == nil {
			c.c = nc
			c.br.Reset(nc)
		}
	}
	return status, err
}

func (c *conn) exchange(req []byte) (int, error) {
	c.c.SetDeadline(time.Now().Add(requestTimeout))
	if _, err := c.c.Write(req); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, err
	}
	c.body.Reset()
	_, err = io.Copy(&c.body, resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// sample is one measured request.
type sample struct {
	Req      int32         // position in the stream
	Latency  time.Duration // reply − intended send (open loop) or − send (closed loop)
	Service  time.Duration // reply − actual send
	Late     time.Duration // open loop: actual send − earliest moment the generator could have sent
	TookUS   int32         // server-reported handler time, when tracing
	Start    time.Duration // actual send, relative to the phase start
	Failed   bool
	Probe    bool // a reference probe (/healthz), not a request of the workload
	RespSize int32
}

// phaseResult is one load phase: every request attempted, in completion
// order per client.
type phaseResult struct {
	Name     string
	Begin    time.Time
	Elapsed  time.Duration
	Samples  []sample
	Attempts int
	Failed   int
}

func (p *phaseResult) succeeded() int { return p.Attempts - p.Failed }

// split returns the phase's successful samples: the workload's requests
// and the probes.
func (p *phaseResult) split() (reqs, probes []*sample) {
	for i := range p.Samples {
		switch s := &p.Samples[i]; {
		case s.Failed:
		case s.Probe:
			probes = append(probes, s)
		default:
			reqs = append(reqs, s)
		}
	}
	return reqs, probes
}

// source hands out stream positions to the client goroutines.
type source struct {
	reqs  [][]byte // prebuilt request per distinct query
	order []int32
	next  atomic.Int64
}

func newSource(in *inputs) *source {
	s := &source{order: in.order, reqs: make([][]byte, len(in.queries))}
	for i, q := range in.queries {
		s.reqs[i] = searchRequest(q)
	}
	return s
}

// from returns a source over the same requests that starts handing out
// at stream position start.
func (s *source) from(start int) *source {
	c := &source{reqs: s.reqs, order: s.order}
	c.next.Store(int64(start))
	return c
}

func (s *source) take() (int32, []byte) {
	i := int(s.next.Add(1) - 1)
	return int32(i), s.reqs[s.order[i%len(s.order)]]
}

// okReply reports whether a reply is a 200 and, unless it answers a
// probe, carries a search response. Full answers are checked against the oracle after the run;
// during load only the envelope is looked at, so checking costs the
// generator nothing that would show in the latencies.
func okReply(probe bool, status int, body []byte) bool {
	return status == http.StatusOK && (probe || bytes.HasPrefix(body, []byte(`{"query":`)))
}

// tookUS extracts the server-reported handler time from a search reply.
func tookUS(body []byte) int32 {
	const key = `"took_us":`
	i := bytes.LastIndex(body, []byte(key))
	if i < 0 {
		return 0
	}
	var v int32
	for _, ch := range body[i+len(key):] {
		if ch < '0' || ch > '9' {
			break
		}
		v = v*10 + int32(ch-'0')
	}
	return v
}

// closedLoop runs `clients` goroutines for d; each sends its next
// request (from take, every probeEvery-th a probe) as soon as the
// previous reply is in.
func closedLoop(ctx context.Context, name, addr string, take func() (int32, []byte), d time.Duration, traced bool) (*phaseResult, error) {
	return runClients(ctx, name, addr, clients, func(_ int, c *conn, begin time.Time, out *[]sample) {
		end := begin.Add(d)
		for i := 0; ctx.Err() == nil; i++ {
			sent := time.Now()
			if !sent.Before(end) {
				return
			}
			s := sample{Req: -1, Probe: isProbe(i), Start: sent.Sub(begin)}
			req := probeRequest
			if !s.Probe {
				s.Req, req = take()
			}
			status, err := c.do(req)
			s.Service = time.Since(sent)
			s.Latency = s.Service
			s.RespSize = int32(c.body.Len())
			s.Failed = err != nil || !okReply(s.Probe, status, c.body.Bytes())
			if traced {
				s.TookUS = tookUS(c.body.Bytes())
			}
			*out = append(*out, s)
		}
	})
}

// openLoop sends at a fixed rate for d over n connections: request k is
// due at begin+k/rate and is timed from that instant whether or not the
// client was free to send it, so a stall delays — and is charged to —
// every request queued behind it. Requests are dealt round-robin to the
// connections; take supplies them and ok judges each reply. With probes,
// every probeEvery-th slot of the schedule carries a probe instead.
func openLoop(ctx context.Context, name, addr string, n, rate int, d time.Duration, probes bool,
	take func() (int32, []byte), ok func(probe bool, status int, body []byte) bool) (*phaseResult, error) {
	gap := time.Duration(float64(time.Second) / float64(rate))
	total := int(d / gap)
	return runClients(ctx, name, addr, n, func(id int, c *conn, begin time.Time, out *[]sample) {
		free := begin // when this client last became able to send
		for k := id; k < total && ctx.Err() == nil; k += n {
			due := begin.Add(time.Duration(k) * gap)
			sleepUntil(due)
			s := sample{Req: -1, Probe: probes && isProbe(k)}
			req := probeRequest
			if !s.Probe {
				s.Req, req = take()
			}
			sent := time.Now()
			status, err := c.do(req)
			done := time.Now()
			earliest := due
			if free.After(earliest) {
				earliest = free
			}
			s.Start, s.Latency, s.Service, s.Late = sent.Sub(begin), done.Sub(due), done.Sub(sent), sent.Sub(earliest)
			s.Failed = err != nil || !ok(s.Probe, status, c.body.Bytes())
			s.RespSize = int32(c.body.Len())
			*out = append(*out, s)
			free = done
		}
	})
}

// sleepUntil blocks in nanosleep(2) until t. time.Sleep would not do:
// the Go runtime parks an idle thread in epoll_wait, whose timeout is in
// whole milliseconds, so every wake-up lands up to 1 ms late — several
// times the latencies being measured. nanosleep wakes within ~0.1 ms.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// runClients dials n connections, runs body on each from a common start
// instant, and merges the samples.
func runClients(ctx context.Context, name, addr string, n int,
	body func(id int, c *conn, begin time.Time, out *[]sample)) (*phaseResult, error) {
	conns := make([]*conn, n)
	for i := range conns {
		c, err := dial(addr)
		if err != nil {
			for _, o := range conns[:i] {
				o.close()
			}
			return nil, fmt.Errorf("%s: dial %s: %w", name, addr, err)
		}
		conns[i] = c
	}
	outs := make([][]sample, n)
	var wg sync.WaitGroup
	begin := time.Now()
	for i := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conns[i].close()
			body(i, conns[i], begin, &outs[i])
		}()
	}
	wg.Wait()
	res := &phaseResult{Name: name, Begin: begin, Elapsed: time.Since(begin)}
	for _, o := range outs {
		res.Samples = append(res.Samples, o...)
	}
	for i := range res.Samples {
		res.Attempts++
		if res.Samples[i].Failed {
			res.Failed++
		}
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted.
func percentile[T any](sorted []T, p float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// topPercentile returns the highest of p50, p90, p99, p99.9, p99.99 that
// has at least ten samples beyond it among n: past that the tail is too
// thin to repeat.
func topPercentile(n int) float64 {
	top := 0.5
	for _, oneIn := range []int{10, 100, 1000, 10000} { // p = 1 − 1/oneIn
		if n/oneIn >= 10 {
			top = 1 - 1/float64(oneIn)
		}
	}
	return top
}

func sortedDurations(samples []*sample, pick func(*sample) time.Duration) []time.Duration {
	out := make([]time.Duration, 0, len(samples))
	for _, s := range samples {
		out = append(out, pick(s))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// probeWindow is the stretch of a phase whose probes gauge the box for
// the requests sent within it: long enough to hold a dozen probes in the
// closed loop, short against the seconds over which the host's speed
// shifts.
const probeWindow = 100 * time.Millisecond

// relative returns, sorted, each request's time (pick) divided by the
// median time of the probes sent in the same probeWindow of the phase: what
// the request cost in empty exchanges of that moment. A window holding
// fewer than three probes (a stall) takes the whole phase's median.
func relative(reqs, probes []*sample, pick func(*sample) time.Duration) []float64 {
	window := func(s *sample) int { return int(s.Start / probeWindow) }
	byWindow := map[int][]*sample{}
	for _, s := range probes {
		byWindow[window(s)] = append(byWindow[window(s)], s)
	}
	whole := float64(percentile(sortedDurations(probes, pick), 0.5))
	gauge := make(map[int]float64, len(byWindow))
	for w, ps := range byWindow {
		if len(ps) >= 3 {
			gauge[w] = float64(percentile(sortedDurations(ps, pick), 0.5))
		}
	}
	out := make([]float64, 0, len(reqs))
	for _, s := range reqs {
		g, ok := gauge[window(s)]
		if !ok {
			g = whole
		}
		out = append(out, ratio(float64(pick(s)), g))
	}
	sort.Float64s(out)
	return out
}

// meanOf is the mean of pick over samples.
func meanOf(samples []*sample, pick func(*sample) time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range samples {
		sum += pick(s)
	}
	return sum / time.Duration(len(samples))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
