package multiserver

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"adindex"
	"adindex/internal/corpus"
)

// localTestServer serves the index of testSetup, held to routing epoch 7,
// with two poison queries: "poison" panics and "bad" is a handler error.
func localTestServer(t *testing.T) (*Server, string) {
	t.Helper()
	c, ix, _ := testSetup(t, 500)
	srv, err := NewIndexServer("127.0.0.1:0", ServeOpts{}, BackendFunc(func(dst []byte, req Request) ([]byte, error) {
		switch {
		case req.Query == "poison":
			panic("deliberate test panic")
		case req.Query == "bad":
			return nil, errors.New("bad query")
		case req.Tagged && req.Epoch != 7:
			return nil, &StaleEpochError{ClientEpoch: req.Epoch, ServerEpoch: 7}
		}
		return CoreBackend{Index: ix}.AppendMatch(dst, req)
	}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, c.Ads[0].Phrase + " zzextra"
}

// TestLocalAnswersAsSocket sends every kind of request — plain, epoch- and
// records-tagged, current and stale, expired, malformed, a panic, a handler
// error — through a socket and through Server.Local, and requires the same
// response bytes or the same error from both.
func TestLocalAnswersAsSocket(t *testing.T) {
	srv, match := localTestServer(t)
	sock, err := DialConn(srv.Addr(), ConnOpts{MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	local := srv.Local(ConnOpts{MaxRetries: -1})
	if local.Addr() != srv.Addr() {
		t.Fatalf("local Addr = %q, want the server's %q", local.Addr(), srv.Addr())
	}

	body := []byte(match)
	requests := map[string][]byte{
		"plain":            body,
		"no match":         []byte("zzzz qqqq"),
		"epoch":            AppendEpochRequest(nil, 7, body),
		"stale epoch":      AppendEpochRequest(nil, 3, body),
		"records":          AppendRecordsRequest(nil, 0, body),
		"records at epoch": AppendRecordsRequest(nil, 7, body),
		"expired":          AppendDeadlineRequest(nil, 0, AppendRecordsRequest(nil, 7, body)),
		"live budget":      AppendDeadlineRequest(nil, time.Minute, AppendRecordsRequest(nil, 7, body)),
		"malformed tag":    {epochReqMagic, 0, 0},
		"panic":            []byte("poison"),
		"handler error":    []byte("bad"),
	}
	for name, req := range requests {
		want, werr := sock.Exchange(req)
		got, gerr := local.Exchange(req)
		if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
			t.Errorf("%s: local error %v, socket error %v", name, gerr, werr)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: local answered %d bytes %x, socket %d bytes %x", name, len(got), got, len(want), want)
		}
		if name == "records" && len(want) <= 5 {
			t.Fatalf("records request matched nothing: %x", want)
		}
	}
	if srv.Panics() != 2 || srv.Expired() != 2 {
		t.Errorf("Panics %d, Expired %d: want 2 and 2, one per transport", srv.Panics(), srv.Expired())
	}
	if n := srv.Requests(); n != int64(2*len(requests)) {
		t.Errorf("Requests = %d, want %d", n, 2*len(requests))
	}
	if local.Breaker().State() != BreakerClosed || local.Stats().Failures != 0 {
		t.Errorf("local breaker %v with %d failures after app-level answers", local.Breaker().State(), local.Stats().Failures)
	}
}

// TestLocalPanicContainment: a panicking handler asked in-process answers a
// *ServerError on the caller's goroutine, which survives it, and the
// breaker stays closed.
func TestLocalPanicContainment(t *testing.T) {
	srv, match := localTestServer(t)
	local := srv.Local(ConnOpts{MaxRetries: -1})
	var se *ServerError
	for i := 0; i < 3; i++ {
		if _, err := local.Exchange([]byte("poison")); !errors.As(err, &se) || !strings.Contains(se.Msg, "panic") {
			t.Fatalf("poison round %d returned %v, want a *ServerError naming the panic", i, err)
		}
	}
	if srv.Panics() != 3 {
		t.Fatalf("Panics = %d, want 3", srv.Panics())
	}
	if resp, err := local.Exchange([]byte(match)); err != nil || len(resp) <= 4 {
		t.Fatalf("exchange after the panics = %x, %v", resp, err)
	}
	if local.Breaker().State() != BreakerClosed {
		t.Fatalf("breaker %v after contained panics, want closed", local.Breaker().State())
	}
}

// TestLocalDeadline: an in-process request whose budget is spent is answered
// ErrDeadlineExpired without running the handler, a deadline already past
// is refused before the server is asked, and a live budget reaches the
// handler as the request's deadline.
func TestLocalDeadline(t *testing.T) {
	handled, sawDeadline := 0, false
	srv, err := NewIndexServer("127.0.0.1:0", ServeOpts{}, BackendFunc(func(dst []byte, req Request) ([]byte, error) {
		handled++
		sawDeadline = !req.Deadline.IsZero()
		return append(dst, "done"...), nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	local := srv.Local(ConnOpts{MaxRetries: -1})

	if _, err := local.Exchange(AppendDeadlineRequest(nil, 0, []byte("q"))); !errors.Is(err, ErrDeadlineExpired) {
		t.Fatalf("zero-budget request returned %v, want ErrDeadlineExpired", err)
	}
	if handled != 0 || srv.Expired() != 1 {
		t.Fatalf("expired request: handled %d, Expired %d; want 0 and 1", handled, srv.Expired())
	}
	if _, err := local.ExchangeDeadline([]byte("q"), time.Now().Add(-time.Millisecond)); !errors.Is(err, ErrDeadlineExpired) {
		t.Fatalf("past deadline returned %v, want ErrDeadlineExpired", err)
	}
	if srv.Requests() != 1 {
		t.Fatalf("a past deadline reached the server: %d requests", srv.Requests())
	}
	if resp, err := local.ExchangeDeadline([]byte("q"), time.Now().Add(time.Second)); err != nil || string(resp) != "done" {
		t.Fatalf("live exchange = %q, %v", resp, err)
	}
	if handled != 1 || !sawDeadline {
		t.Fatalf("live budget: handled %d, deadline seen %v", handled, sawDeadline)
	}
	if local.Breaker().State() != BreakerClosed {
		t.Fatalf("breaker %v after expired answers, want closed", local.Breaker().State())
	}
}

// TestLocalNeedsNoListener: a local exchange takes no socket, so it answers
// after the server's listener has closed; once the server itself is closed
// every attempt is a transport error, net.ErrClosed, that the breaker
// counts.
func TestLocalNeedsNoListener(t *testing.T) {
	srv, match := localTestServer(t)
	local := srv.Local(ConnOpts{MaxRetries: -1, BreakerThreshold: 1})
	if err := local.Dial(); err != nil {
		t.Fatalf("Dial of a local conn: %v", err)
	}
	srv.ln.Close()
	if _, err := DialConn(srv.Addr(), ConnOpts{Timeout: time.Second}); err == nil {
		t.Fatal("a socket dialed a closed listener")
	}
	if resp, err := local.Exchange([]byte(match)); err != nil || len(resp) <= 4 {
		t.Fatalf("local exchange after the listener closed = %x, %v", resp, err)
	}

	srv.Close()
	if err := local.Dial(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Dial of a closed server's local conn = %v, want net.ErrClosed", err)
	}
	if _, err := local.Exchange([]byte(match)); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("exchange with a closed server = %v, want net.ErrClosed", err)
	}
	if local.Breaker().State() != BreakerOpen || local.Stats().Failures != 1 {
		t.Fatalf("breaker %v, %d failures: a closed server is a transport failure", local.Breaker().State(), local.Stats().Failures)
	}
}

// TestLocalExchangesDoNotQueue: two exchanges on one local Conn run at once,
// a slow one holding up neither the other nor the Conn.
func TestLocalExchangesDoNotQueue(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	srv, err := NewIndexServer("127.0.0.1:0", ServeOpts{}, BackendFunc(func(dst []byte, req Request) ([]byte, error) {
		if req.Query == "slow" {
			close(started)
			<-release
		}
		return append(dst, req.Query...), nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	local := srv.Local(ConnOpts{})
	slow := make(chan error)
	go func() {
		_, err := local.Exchange([]byte("slow"))
		slow <- err
	}()
	<-started
	if resp, err := local.Exchange([]byte("fast")); err != nil || string(resp) != "fast" {
		t.Fatalf("exchange beside a blocked one = %q, %v", resp, err)
	}
	close(release)
	if err := <-slow; err != nil {
		t.Fatal(err)
	}
}

// TestLocalExchangeAllocs: once its pooled buffers are warm, a local records
// exchange into reused decode buffers allocates nothing, through the index
// server (which hands its backend the query text in place; see
// TestIndexServerKeepsNoQueryText) as over a handler that takes the body as
// bytes.
func TestLocalExchangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	_, ix, _ := testSetup(t, 2000)
	ixSrv, err := NewIndexServer("127.0.0.1:0", ServeOpts{}, CoreBackend{Index: ix})
	if err != nil {
		t.Fatal(err)
	}
	defer ixSrv.Close()
	one := []corpus.Ad{{ID: 1}}
	raw, err := serve("127.0.0.1:0", ServeOpts{}, func(dst []byte, _ Request, _ []byte) ([]byte, error) {
		return AppendAdRecords(dst, one, 0), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	c, _, _ := testSetup(t, 2000)
	records := AppendRecordsRequest(nil, 0, []byte(c.Ads[0].Phrase+" zzextra"))
	for _, tc := range []struct {
		name string
		srv  *Server
		max  float64
	}{
		{"index server", ixSrv, 0},
		{"bytes handler", raw, 0},
	} {
		local := tc.srv.Local(ConnOpts{})
		var ids []uint64
		var meta []AdMeta
		exchange := func() {
			var err error
			ids, meta, _, err = local.ExchangeRecords(ids[:0], meta[:0], records, time.Now().Add(time.Second))
			if err != nil || len(ids) == 0 {
				t.Fatalf("%s: records exchange: %d ids, %v", tc.name, len(ids), err)
			}
		}
		exchange()
		if got := testing.AllocsPerRun(200, exchange); got > tc.max {
			t.Errorf("%s: %.1f allocs per local exchange, want <= %.0f", tc.name, got, tc.max)
		} else {
			t.Logf("%s: %.1f allocs per local exchange", tc.name, got)
		}
	}
}

// TestIndexServerKeepsNoQueryText: the index server hands its backend the
// query text in the request frame's own bytes. Overwriting the frame after
// the exchange changes nothing a backend kept: an adindex.Index's workload
// sample still counts the query's word set as the one it saw (aliased, the
// set would read as the overwriting bytes, and the query would count as
// new), and the core and adindex backends answer the query as before.
func TestIndexServerKeepsNoQueryText(t *testing.T) {
	c, cix, _ := testSetup(t, 500)
	ix := adindex.Build(c.Ads, adindex.Options{})
	for _, tc := range []struct {
		name    string
		backend Backend
	}{
		{"adindex", BackendFunc(func(dst []byte, req Request) ([]byte, error) {
			return AppendAdRecords(dst, ix.Match(nil, adindex.Query{Text: req.Query}).Ads, 0), nil
		})},
		{"core", CoreBackend{Index: cix}},
	} {
		srv, err := NewIndexServer("127.0.0.1:0", ServeOpts{}, tc.backend)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		q := c.Ads[3].Phrase + " " + c.Ads[4].Phrase + " zzextra"
		before := ix.ObservedQueries()
		frame := AppendQueryText(AppendRecordsRequest(nil, 0, nil), q)
		want := bytes.Clone(srv.answer(nil, frame))
		for i := range frame {
			frame[i] = 'x'
		}
		if got := srv.answer(nil, AppendQueryText(AppendRecordsRequest(nil, 0, nil), q)); !bytes.Equal(got, want) {
			t.Errorf("%s: the query answers %x after its first frame was overwritten, %x before", tc.name, got, want)
		}
		if tc.name == "adindex" {
			if n := ix.ObservedQueries() - before; n != 1 {
				t.Errorf("%s: the sample holds %d new word sets after asking one twice, want 1", tc.name, n)
			}
		}
	}
}
