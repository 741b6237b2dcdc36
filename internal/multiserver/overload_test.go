package multiserver

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestPanicContainment is the regression test for the fatal-panic gap:
// a backend handler that panics on a poison query must answer a typed
// *ServerError frame, and the server must keep serving subsequent
// requests on the same and on fresh connections. Before containment the
// goroutine panic killed the whole process.
func TestPanicContainment(t *testing.T) {
	srv, err := NewIndexServer("127.0.0.1:0", ServeOpts{}, BackendFunc(func(dst []byte, req Request) ([]byte, error) {
		if req.Query == "poison" {
			panic("deliberate test panic")
		}
		return append(append(dst, "ok:"...), req.Query...), nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := DialConn(srv.Addr(), ConnOpts{Timeout: 2 * time.Second, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if resp, err := conn.Exchange([]byte("hello")); err != nil || string(resp) != "ok:hello" {
		t.Fatalf("warmup exchange = %q, %v", resp, err)
	}
	var se *ServerError
	if _, err := conn.Exchange([]byte("poison")); !errors.As(err, &se) {
		t.Fatalf("poison query returned %v, want *ServerError", err)
	} else if !strings.Contains(se.Msg, "panic") {
		t.Fatalf("error frame %q does not mention the panic", se.Msg)
	}
	if got := srv.Panics(); got != 1 {
		t.Fatalf("Panics = %d, want 1", got)
	}
	// Same connection still serves: the stream stayed in sync.
	if resp, err := conn.Exchange([]byte("after")); err != nil || string(resp) != "ok:after" {
		t.Fatalf("post-panic exchange on same conn = %q, %v", resp, err)
	}
	// And so does a fresh one.
	conn2, err := DialConn(srv.Addr(), ConnOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if resp, err := conn2.Exchange([]byte("fresh")); err != nil || string(resp) != "ok:fresh" {
		t.Fatalf("post-panic exchange on fresh conn = %q, %v", resp, err)
	}
	// Repeated poison must not accumulate damage.
	for i := 0; i < 3; i++ {
		if _, err := conn.Exchange([]byte("poison")); !errors.As(err, &se) {
			t.Fatalf("poison round %d returned %v, want *ServerError", i, err)
		}
	}
	if resp, err := conn.Exchange([]byte("alive")); err != nil || string(resp) != "ok:alive" {
		t.Fatalf("server degraded after repeated panics: %q, %v", resp, err)
	}
}

// TestDeadlineRequestRoundTrip checks the wire encoding and its
// composition with epoch tagging.
func TestDeadlineRequestRoundTrip(t *testing.T) {
	body := []byte("used books")
	now := time.Unix(1700000000, 0)
	wire := AppendDeadlineRequest(nil, 1500*time.Microsecond, body)
	req, got, err := DecodeRequest(wire, now)
	if err != nil || req != (Request{Deadline: now.Add(1500 * time.Microsecond)}) || !bytes.Equal(got, body) {
		t.Fatalf("decode = %+v, %q, err %v", req, got, err)
	}
	// Untagged passes through unchanged, with no deadline.
	if req, got, err := DecodeRequest(body, now); err != nil || req != (Request{}) || !bytes.Equal(got, body) {
		t.Fatalf("untagged decode: %+v %q err=%v", req, got, err)
	}
	// Negative budgets clamp to zero rather than wrapping around.
	if req, _, _ := DecodeRequest(AppendDeadlineRequest(nil, -time.Second, body), now); !req.Deadline.Equal(now) {
		t.Fatalf("negative remaining decoded as %v", req.Deadline.Sub(now))
	}
	// Deadline wraps outermost around an epoch-tagged body.
	req, got, err = DecodeRequest(AppendDeadlineRequest(nil, time.Second, AppendEpochRequest(nil, 42, body)), now)
	if err != nil || req != (Request{Epoch: 42, Tagged: true, Deadline: now.Add(time.Second)}) || !bytes.Equal(got, body) {
		t.Fatalf("composed decode = %+v, %q, err %v", req, got, err)
	}
	// Truncated header is an error, not a silent pass-through.
	if _, _, err := DecodeRequest(wire[:5], now); !errors.Is(err, ErrMalformed) {
		t.Fatalf("truncated deadline header: err = %v, want ErrMalformed", err)
	}
}

// TestDeadlineExpiredOverWire: a request whose budget is spent is
// answered statusExpired without running the handler, and a live budget
// reaches the backend as the request's deadline.
func TestDeadlineExpiredOverWire(t *testing.T) {
	handled := 0
	var gotDeadline bool
	srv, err := NewIndexServer("127.0.0.1:0", ServeOpts{}, BackendFunc(func(dst []byte, req Request) ([]byte, error) {
		handled++
		gotDeadline = !req.Deadline.IsZero()
		return append(dst, "done"...), nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := DialConn(srv.Addr(), ConnOpts{MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Expired on arrival: raw frame with zero remaining budget.
	if _, err := conn.Exchange(AppendDeadlineRequest(nil, 0, []byte("q"))); !errors.Is(err, ErrDeadlineExpired) {
		t.Fatalf("zero-budget request returned %v, want ErrDeadlineExpired", err)
	}
	if handled != 0 {
		t.Fatal("handler ran for an expired request")
	}
	if srv.Expired() != 1 {
		t.Fatalf("Expired = %d, want 1", srv.Expired())
	}

	// Live budget: handler runs and sees the deadline.
	resp, err := conn.ExchangeDeadline([]byte("q"), time.Now().Add(time.Second))
	if err != nil || string(resp) != "done" {
		t.Fatalf("live exchange = %q, %v", resp, err)
	}
	if handled != 1 || !gotDeadline {
		t.Fatalf("handled=%d gotDeadline=%v", handled, gotDeadline)
	}

	// Client-side short-circuit: a deadline already in the past never
	// touches the wire.
	if _, err := conn.ExchangeDeadline([]byte("q"), time.Now().Add(-time.Millisecond)); !errors.Is(err, ErrDeadlineExpired) {
		t.Fatalf("past deadline returned %v, want ErrDeadlineExpired", err)
	}
	if handled != 1 {
		t.Fatal("handler ran for a client-side expired request")
	}
	// Expired answers are app-level: no breaker damage.
	if state := conn.Breaker().State(); state != BreakerClosed {
		t.Fatalf("breaker %v after expired answers, want closed", state)
	}
}

// TestIDsFlagsRoundTrip: the flags byte rides only when set, the
// unflagged encoding is byte-identical to the legacy one, and both
// decoders accept what they should.
func TestIDsFlagsRoundTrip(t *testing.T) {
	ids := []uint64{3, 1, 4, 1, 5}
	plain := EncodeIDs(ids)
	if !bytes.Equal(AppendIDs(nil, ids, 0), plain) {
		t.Fatal("zero-flag encoding differs from legacy encoding")
	}
	flagged := AppendIDs(nil, ids, IDFlagTruncated|IDFlagCutoff)
	if len(flagged) != len(plain)+1 {
		t.Fatalf("flagged frame %d bytes, want %d", len(flagged), len(plain)+1)
	}
	gotIDs, flags, err := DecodeIDsFlags(flagged)
	if err != nil {
		t.Fatal(err)
	}
	if flags != (IDFlagTruncated | IDFlagCutoff) {
		t.Fatalf("flags = %#x", flags)
	}
	for i := range ids {
		if gotIDs[i] != ids[i] {
			t.Fatalf("ids[%d] = %d, want %d", i, gotIDs[i], ids[i])
		}
	}
	// Tolerant decoder accepts legacy frames too.
	if _, flags, err := DecodeIDsFlags(plain); err != nil || flags != 0 {
		t.Fatalf("legacy frame via DecodeIDsFlags: flags=%#x err=%v", flags, err)
	}
	// Strict legacy decoder rejects flagged frames (callers that cannot
	// interpret flags must not silently drop them).
	if _, err := DecodeIDs(flagged); err == nil {
		t.Fatal("legacy DecodeIDs accepted a flagged frame")
	}
	// Empty list round-trips with flags.
	if ids2, flags, err := DecodeIDsFlags(AppendIDs(nil, nil, IDFlagTruncated)); err != nil || len(ids2) != 0 || flags != IDFlagTruncated {
		t.Fatalf("empty flagged frame: ids=%v flags=%#x err=%v", ids2, flags, err)
	}
}

// TestBackendFlagsOverWire: a backend's flags ride the ID frame end to
// end through NewIndexServer.
func TestBackendFlagsOverWire(t *testing.T) {
	srv, err := NewIndexServer("127.0.0.1:0", ServeOpts{}, truncatingBackend)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := DialConn(srv.Addr(), ConnOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	resp, err := conn.ExchangeDeadline([]byte("partial"), time.Now().Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	ids, flags, err := DecodeIDsFlags(resp)
	if err != nil {
		t.Fatal(err)
	}
	if flags&IDFlagTruncated == 0 {
		t.Fatalf("flags = %#x, want truncated bit", flags)
	}
	if len(ids) != 2 {
		t.Fatalf("ids = %v", ids)
	}

	resp, err = conn.Exchange([]byte("full"))
	if err != nil {
		t.Fatal(err)
	}
	if _, flags, _ := DecodeIDsFlags(resp); flags != 0 {
		t.Fatalf("full result carried flags %#x", flags)
	}
}

// truncatingBackend fakes a budget-aware backend: queries containing
// "partial" return a truncated two-ID answer.
var truncatingBackend = BackendFunc(func(dst []byte, req Request) ([]byte, error) {
	if strings.Contains(req.Query, "partial") {
		return AppendIDs(dst, []uint64{1, 2}, IDFlagTruncated), nil
	}
	return AppendIDs(dst, []uint64{1, 2, 3}, 0), nil
})
