// Frame-protocol edge cases and client hardening, driven through the
// faultnet proxy so every malformed wire condition is produced by real
// network I/O rather than hand-built byte slices.
package multiserver

import (
	"errors"
	"strings"
	"testing"
	"time"

	"adindex/internal/faultnet"
)

// fastOpts is a ConnOpts tuned for tests: short deadline, quick backoff.
func fastOpts() ConnOpts {
	return ConnOpts{
		Timeout:          300 * time.Millisecond,
		MaxRetries:       2,
		RetryBase:        2 * time.Millisecond,
		RetryMax:         10 * time.Millisecond,
		BreakerThreshold: 100, // keep the breaker out of the way unless a test wants it
		BreakerCooldown:  50 * time.Millisecond,
		Seed:             7,
	}
}

// noRetryOpts disables retries so injected faults surface directly.
func noRetryOpts() ConnOpts {
	o := fastOpts()
	o.MaxRetries = -1
	return o
}

// proxiedIndex starts an index server behind a faultnet proxy.
func proxiedIndex(t *testing.T, policy faultnet.FaultPolicy) (*Server, *faultnet.Proxy) {
	t.Helper()
	_, ix, _ := testSetup(t, 100)
	srv, err := NewIndexServer("127.0.0.1:0", ServeOpts{}, CoreBackend{Index: ix})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	proxy, err := faultnet.New(srv.Addr(), policy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	return srv, proxy
}

func TestErrorFrameRoundTrip(t *testing.T) {
	// A malformed ID request to the ad server must produce a typed
	// *ServerError at the client — never an empty-metadata success.
	c, _, _ := testSetup(t, 50)
	adSrv, err := NewAdServer("127.0.0.1:0", ServeOpts{}, c.Ads)
	if err != nil {
		t.Fatal(err)
	}
	defer adSrv.Close()
	conn, err := DialConn(adSrv.Addr(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	_, err = conn.Exchange([]byte{1, 2}) // too short to be an ID frame
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *ServerError", err)
	}
	if !strings.Contains(se.Msg, "short ID frame") {
		t.Errorf("error message lost in transit: %q", se.Msg)
	}
	// Application errors must not retry and must not trip the breaker:
	// the backend answered.
	if st := conn.Stats(); st.Retries != 0 {
		t.Errorf("ServerError was retried %d times", st.Retries)
	}
	if conn.Breaker().State() != BreakerClosed {
		t.Error("ServerError tripped the breaker")
	}
	// A valid empty request still succeeds and is distinguishable.
	meta, err := appendDecodedMeta(nil, mustExchange(t, conn, EncodeIDs(nil)))
	if err != nil || len(meta) != 0 {
		t.Errorf("empty metadata fetch: meta=%v err=%v", meta, err)
	}
}

func mustExchange(t *testing.T, c *Conn, req []byte) []byte {
	t.Helper()
	resp, err := c.Exchange(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestOversizeFrameRejectedViaFaultnet(t *testing.T) {
	_, proxy := proxiedIndex(t, faultnet.Script{{Oversize: true}})
	conn, err := DialConn(proxy.Addr(), noRetryOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, err = conn.Exchange([]byte("query"))
	if err == nil || !strings.Contains(err.Error(), "too large") {
		t.Fatalf("oversize frame: err = %v, want frame-too-large", err)
	}
}

func TestTruncatedHeaderViaFaultnet(t *testing.T) {
	_, proxy := proxiedIndex(t, faultnet.Script{{Truncate: 2}})
	conn, err := DialConn(proxy.Addr(), noRetryOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Exchange([]byte("query")); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestTruncatedPayloadViaFaultnet(t *testing.T) {
	// Forward the full header plus a sliver of payload, then cut: the
	// client's io.ReadFull must fail.
	_, proxy := proxiedIndex(t, faultnet.Script{{Truncate: 6}})
	conn, err := DialConn(proxy.Addr(), noRetryOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Exchange([]byte("query")); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestCorruptedLengthPrefixViaFaultnet(t *testing.T) {
	_, proxy := proxiedIndex(t, faultnet.Script{{CorruptLen: true}})
	conn, err := DialConn(proxy.Addr(), noRetryOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Exchange([]byte("query")); err == nil {
		t.Fatal("corrupted length prefix accepted")
	}
}

func TestRetryRecoversFromTransientFaults(t *testing.T) {
	// Reset, then a truncated frame, then healthy: a client with a
	// 2-retry budget must come through with the right answer.
	srv, proxy := proxiedIndex(t, faultnet.Script{{Reset: true}, {Truncate: 3}})
	conn, err := DialConn(proxy.Addr(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	resp, err := conn.Exchange([]byte("query"))
	if err != nil {
		t.Fatalf("exchange with transient faults: %v", err)
	}
	if _, err := DecodeIDs(resp); err != nil {
		t.Fatalf("response decode: %v", err)
	}
	st := conn.Stats()
	if st.Retries < 2 {
		t.Errorf("Retries = %d, want >= 2", st.Retries)
	}
	if st.Reconnects < 1 {
		t.Errorf("Reconnects = %d, want >= 1", st.Reconnects)
	}
	if srv.Requests() == 0 {
		t.Error("backend never saw the request")
	}
}

func TestBlackholeHitsDeadline(t *testing.T) {
	// A blackholed response must fail at the per-operation deadline, not
	// hang forever.
	_, proxy := proxiedIndex(t, faultnet.Script{{Drop: true}})
	conn, err := DialConn(proxy.Addr(), noRetryOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	t0 := time.Now()
	_, err = conn.Exchange([]byte("query"))
	elapsed := time.Since(t0)
	if err == nil {
		t.Fatal("blackholed exchange succeeded")
	}
	if elapsed < 250*time.Millisecond || elapsed > 2*time.Second {
		t.Errorf("deadline fired after %v, want ~300ms", elapsed)
	}
}

func TestBreakerFastFailsAfterBackendDeath(t *testing.T) {
	srv, proxy := proxiedIndex(t, nil)
	opts := fastOpts()
	opts.BreakerThreshold = 3
	opts.MaxRetries = -1
	conn, err := DialConn(proxy.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Exchange([]byte("warm")); err != nil {
		t.Fatal(err)
	}
	proxy.Partition()
	for i := 0; i < 3; i++ {
		if _, err := conn.Exchange([]byte("q")); err == nil {
			t.Fatal("exchange during partition succeeded")
		}
	}
	if conn.Breaker().State() != BreakerOpen {
		t.Fatalf("breaker state = %v, want open", conn.Breaker().State())
	}
	// Fast-fail: rejected without touching the wire.
	t0 := time.Now()
	_, err = conn.Exchange([]byte("q"))
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
	if d := time.Since(t0); d > 50*time.Millisecond {
		t.Errorf("fast-fail took %v", d)
	}
	if st := conn.Stats(); st.FastFails == 0 {
		t.Error("fast-fail not counted")
	}
	// Heal; after the cooldown the half-open probe closes the breaker.
	proxy.Heal()
	time.Sleep(opts.BreakerCooldown + 20*time.Millisecond)
	if _, err := conn.Exchange([]byte("recovered")); err != nil {
		t.Fatalf("post-heal probe failed: %v", err)
	}
	if conn.Breaker().State() != BreakerClosed {
		t.Errorf("breaker state after recovery = %v, want closed", conn.Breaker().State())
	}
	if srv.Requests() < 2 {
		t.Errorf("backend requests = %d", srv.Requests())
	}
}

func TestRunLoadContinuesThroughTransientFaults(t *testing.T) {
	// A flaky index backend: deterministic resets sprinkled through the
	// run. Workers must record errors and keep going; the run as a whole
	// succeeds with Requests+Errors == len(stream).
	c, ix, _ := testSetup(t, 300)
	indexSrv, err := NewIndexServer("127.0.0.1:0", ServeOpts{}, CoreBackend{Index: ix})
	if err != nil {
		t.Fatal(err)
	}
	defer indexSrv.Close()
	proxy, err := faultnet.New(indexSrv.Addr(), &faultnet.Random{Seed: 11, ResetProb: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	adSrv, err := NewAdServer("127.0.0.1:0", ServeOpts{}, c.Ads)
	if err != nil {
		t.Fatal(err)
	}
	defer adSrv.Close()

	stream := hotWordStream(c, 120)
	res, err := RunLoad(indexSrv, adSrv.Addr(), stream, 4, proxy.Addr())
	if err != nil {
		t.Fatalf("RunLoad with transient faults: %v", err)
	}
	if res.Requests+res.Errors != len(stream) {
		t.Errorf("Requests(%d) + Errors(%d) != %d queries", res.Requests, res.Errors, len(stream))
	}
	if res.Requests == 0 {
		t.Error("no successful requests")
	}
	if proxy.Faults() == 0 {
		t.Skip("seeded policy injected no faults for this stream size")
	}
}

func TestRunLoadAllWorkersFailReturnsError(t *testing.T) {
	c, ix, _ := testSetup(t, 50)
	indexSrv, err := NewIndexServer("127.0.0.1:0", ServeOpts{}, CoreBackend{Index: ix})
	if err != nil {
		t.Fatal(err)
	}
	defer indexSrv.Close()
	stream := hotWordStream(c, 6)
	// Unreachable ad server: every worker fails every query.
	res, err := RunLoad(indexSrv, "127.0.0.1:1", stream, 3, indexSrv.Addr())
	if err == nil {
		t.Fatalf("all-workers-dead load returned %+v", res)
	}
}
