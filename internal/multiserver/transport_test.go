// Transport contract: one Write per frame, wire bytes fixed, frames
// reassembled however the peer segments them, and no byte of a broken
// connection surviving into the next one.
package multiserver

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tapConn counts Write calls, records what was written, and can cap how
// many bytes one Read hands over.
type tapConn struct {
	net.Conn
	writes  *atomic.Int64
	mu      *sync.Mutex
	written *bytes.Buffer
	maxRead int // 0 = unlimited
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	c.mu.Lock()
	c.written.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *tapConn) Read(p []byte) (int, error) {
	if c.maxRead > 0 && len(p) > c.maxRead {
		p = p[:c.maxRead]
	}
	return c.Conn.Read(p)
}

// tap is one direction's view of a tapped connection.
type tap struct {
	writes  atomic.Int64
	mu      sync.Mutex
	written bytes.Buffer
	maxRead int
}

func (tp *tap) wrap(c net.Conn) net.Conn {
	return &tapConn{Conn: c, writes: &tp.writes, mu: &tp.mu, written: &tp.written, maxRead: tp.maxRead}
}

// take returns and clears the bytes written since the last take.
func (tp *tap) take() []byte {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	b := bytes.Clone(tp.written.Bytes())
	tp.written.Reset()
	return b
}

// tapListener wraps every accepted connection.
type tapListener struct {
	net.Listener
	tp *tap
}

func (l tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.tp.wrap(c), nil
}

// tappedPair starts handler behind a tapped listener and connects a Conn
// through a tapped socket: every Write either end makes is counted.
func tappedPair(t *testing.T, handler appendHandler, client, server *tap) *Conn {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serveOn(tapListener{ln, server}, ServeOpts{}, handler)
	t.Cleanup(func() { srv.Close() })
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(srv.Addr(), noRetryOpts())
	c.mu.Lock()
	c.sock, c.dialed = newSocket(client.wrap(raw)), true
	c.mu.Unlock()
	t.Cleanup(c.Close)
	return c
}

// verdictHandler answers by the request's first byte: 'e' a handler
// error, 's' a stale-epoch rejection, anything else an echo of the body.
func verdictHandler(dst []byte, _ Request, req []byte) ([]byte, error) {
	switch {
	case len(req) > 0 && req[0] == 'e':
		return nil, errors.New("boom")
	case len(req) > 0 && req[0] == 's':
		return nil, &StaleEpochError{ClientEpoch: 3, ServerEpoch: 1<<33 + 4}
	}
	return append(dst, req...), nil
}

// TestOneWritePerFrame: every frame — request, ok, error, stale-epoch,
// expired — leaves its socket in exactly one Write.
func TestOneWritePerFrame(t *testing.T) {
	var client, server tap
	c := tappedPair(t, verdictHandler, &client, &server)
	big := bytes.Repeat([]byte("x"), 3*readBufSize) // spills the reader's buffer, still one Write
	steps := []struct {
		name     string
		req      []byte
		deadline time.Time
		wantErr  error
	}{
		{"ok", []byte("plain"), time.Time{}, nil},
		{"ok tagged", []byte("tagged"), time.Now().Add(time.Minute), nil},
		{"ok large", big, time.Time{}, nil},
		{"error", []byte("e"), time.Time{}, &ServerError{}},
		{"stale", []byte("s"), time.Time{}, ErrStaleEpoch},
	}
	for i, st := range steps {
		resp, err := c.ExchangeDeadline(st.req, st.deadline)
		switch want := st.wantErr.(type) {
		case nil:
			if err != nil || !bytes.Equal(resp, st.req) {
				t.Fatalf("%s: resp %d bytes, err %v", st.name, len(resp), err)
			}
		case *ServerError:
			if !errors.As(err, &want) {
				t.Fatalf("%s: err = %v, want *ServerError", st.name, err)
			}
		default:
			if !errors.Is(err, want) {
				t.Fatalf("%s: err = %v, want %v", st.name, err, want)
			}
		}
		if cw, sw := client.writes.Load(), server.writes.Load(); cw != int64(i+1) || sw != int64(i+1) {
			t.Fatalf("%s: after %d exchanges the client made %d writes and the server %d", st.name, i+1, cw, sw)
		}
	}

	// An expired frame: the client refuses to send a spent budget, so put
	// a zero-budget request on the wire by hand.
	c.mu.Lock()
	sock := c.sock
	err := sock.writeFrame(AppendDeadlineRequest(sock.beginFrame(), 0, []byte("late")))
	if err == nil {
		_, err = sock.fr.readResponse()
	}
	c.mu.Unlock()
	if !errors.Is(err, ErrDeadlineExpired) {
		t.Fatalf("zero-budget request: err = %v, want ErrDeadlineExpired", err)
	}
	if cw, sw := client.writes.Load(), server.writes.Load(); cw != int64(len(steps)+1) || sw != int64(len(steps)+1) {
		t.Fatalf("expired: client made %d writes and the server %d, want %d each", cw, sw, len(steps)+1)
	}

	// The typed hops stay at one write each way as well.
	ids, _, _, err := c.ExchangeRecords(nil, nil, AppendAdRecords(nil, testAds([]uint64{7, 8}), 0), time.Time{})
	if err != nil || len(ids) != 2 {
		t.Fatalf("ExchangeRecords over the echo: %v %v", ids, err)
	}
	if cw, sw := client.writes.Load(), server.writes.Load(); cw != int64(len(steps)+2) || sw != int64(len(steps)+2) {
		t.Fatalf("ExchangeRecords: client made %d writes and the server %d", cw, sw)
	}
}

// TestGoldenWireBytes pins the frames to the bytes the two-write,
// copy-per-layer transport produced for the same inputs.
func TestGoldenWireBytes(t *testing.T) {
	q := []byte("cheap flights")
	ids := []uint64{1, 99, 1 << 40}
	meta := []AdMeta{{BidMicros: 123456, ClickRate: 77}, {}, {BidMicros: -1, ClickRate: 65535}}
	frame := func(payload ...[]byte) []byte {
		s := &socket{conn: discardConn{}}
		f := s.beginFrame()
		for _, p := range payload {
			f = append(f, p...)
		}
		if err := s.writeFrame(f); err != nil {
			t.Fatal(err)
		}
		return f
	}
	ok := []byte{statusOK}
	recAds := recordAds(ids, meta)
	cases := []struct {
		name string
		got  []byte
		want string
	}{
		{"req plain", frame(q), "0000000d636865617020666c6967687473"},
		{"req epoch", frame(AppendEpochRequest(nil, 42, q)), "00000016eb000000000000002a636865617020666c6967687473"},
		{"req deadline", frame(AppendDeadlineRequest(nil, 1500*time.Microsecond, q)), "00000016db00000000000005dc636865617020666c6967687473"},
		{"req deadline+epoch", frame(AppendDeadlineRequest(nil, 1500*time.Microsecond, nil), AppendEpochRequest(nil, 1<<40+7, nil), q),
			"0000001fdb00000000000005dceb0000010000000007636865617020666c6967687473"},
		{"req deadline spent", frame(AppendDeadlineRequest(nil, -time.Second, nil)), "00000009db0000000000000000"},
		{"req ids", frame(EncodeIDs(ids)), "0000001c00000003000000000000000100000000000000630000010000000000"},
		{"resp ids", frame(ok, AppendIDs(nil, ids, 0)), "0000001d0000000003000000000000000100000000000000630000010000000000"},
		{"resp ids empty", frame(ok, EncodeIDs(nil)), "000000050000000000"},
		{"resp ids flagged", frame(ok, AppendIDs(nil, ids, IDFlagTruncated|IDFlagCutoff)),
			"0000001e000000000300000000000000010000000000000063000001000000000003"},
		{"resp ids empty flagged", frame(ok, AppendIDs(nil, nil, IDFlagTruncated)), "00000006000000000001"},
		{"resp meta", frame(ok, metaFrame(meta)), "0000001f00000000000001e240004d00000000000000000000ffffffffffffffffffff"},
		{"resp empty", frame(ok), "0000000100"},
		{"resp error", frame(appendErrorResponse(nil, errors.New("boom"))), "0000000501626f6f6d"},
		{"resp stale", frame(appendErrorResponse(nil, &StaleEpochError{ClientEpoch: 3, ServerEpoch: 1<<33 + 4})),
			"000000110200000000000000030000000200000004"},
		{"resp expired", frame(appendErrorResponse(nil, fmt.Errorf("late: %w", ErrDeadlineExpired))), "0000000103"},

		// The records tag and the record frame; the cases above are the
		// §VII-B split's and predate them.
		{"req records", frame(AppendRecordsRequest(nil, 42, q)), "00000016fb000000000000002a636865617020666c6967687473"},
		{"req deadline+records", frame(AppendDeadlineRequest(nil, 1500*time.Microsecond, nil), AppendRecordsRequest(nil, 1<<40+7, nil), q),
			"0000001fdb00000000000005dcfb0000010000000007636865617020666c6967687473"},
		{"req text led by a tag byte", frame(AppendQueryText(nil, "\xeb\x80\x80 shoes")), "0000000a20eb80802073686f6573"},
		{"resp records", frame(ok, AppendAdRecords(nil, recAds, 0)),
			"0000003c00ad00000003" + "0000000000000001000000000001e240004d" + "000000000000006300000000000000000000" + "0000010000000000ffffffffffffffffffff"},
		{"resp records empty", frame(ok, AppendAdRecords(nil, nil, 0)), "0000000600ad00000000"},
		{"resp records flagged", frame(ok, AppendAdRecords(nil, recAds[:1], IDFlagTruncated|IDFlagCutoff)),
			"0000001900ad000000010000000000000001000000000001e240004d03"},
		{"resp records empty flagged", frame(ok, AppendAdRecords(nil, nil, IDFlagTruncated)), "0000000700ad0000000001"},
	}
	for _, tc := range cases {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}

	// And over a live connection: what the two ends put on the wire for a
	// tagged exchange and its flagged answer, an error and a rejection.
	var client, server tap
	c := tappedPair(t, func(dst []byte, _ Request, body []byte) ([]byte, error) {
		if string(body) == "s" {
			return nil, &StaleEpochError{ClientEpoch: 3, ServerEpoch: 1<<33 + 4}
		}
		return AppendIDs(dst, ids, IDFlagTruncated|IDFlagCutoff), nil
	}, &client, &server)
	if _, err := c.Exchange(AppendEpochRequest(nil, 42, q)); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(client.take()); got != "00000016eb000000000000002a636865617020666c6967687473" {
		t.Errorf("live epoch request: %s", got)
	}
	if got := hex.EncodeToString(server.take()); got != "0000001e000000000300000000000000010000000000000063000001000000000003" {
		t.Errorf("live flagged answer: %s", got)
	}
	if _, err := c.ExchangeDeadline([]byte("s"), time.Now().Add(time.Hour)); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("err = %v, want stale epoch", err)
	}
	// The budget on the wire is whatever was left of the hour; the rest
	// of the frame is fixed.
	if got := client.take(); len(got) != 14 || got[3] != 10 || got[4] != deadlineReqMagic || got[13] != 's' {
		t.Errorf("live deadline request: %x", got)
	}
	if got := hex.EncodeToString(server.take()); got != "000000110200000000000000030000000200000004" {
		t.Errorf("live stale answer: %s", got)
	}
}

type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// TestSegmentation: a frame arrives intact whether the peer delivers it
// a byte at a time or glued to the next one.
func TestSegmentation(t *testing.T) {
	payloads := [][]byte{
		[]byte("alpha"),
		{},
		bytes.Repeat([]byte("z"), 2*readBufSize+17), // the chunked path
		[]byte("omega"),
	}

	t.Run("one byte per read, both ends", func(t *testing.T) {
		client, server := tap{maxRead: 1}, tap{maxRead: 1}
		c := tappedPair(t, verdictHandler, &client, &server)
		for _, p := range payloads {
			resp, err := c.Exchange(p)
			if err != nil || !bytes.Equal(resp, p) {
				t.Fatalf("payload of %d bytes: got %d bytes, err %v", len(p), len(resp), err)
			}
		}
	})

	t.Run("one byte per segment into the server", func(t *testing.T) {
		srv, err := serve("127.0.0.1:0", ServeOpts{}, verdictHandler)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		raw, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		fr := newFrameReader(raw)
		for _, p := range payloads[:2] {
			f := binary.BigEndian.AppendUint32(nil, uint32(len(p)))
			for _, b := range append(f, p...) {
				if _, err := raw.Write([]byte{b}); err != nil {
					t.Fatal(err)
				}
			}
			body, err := fr.readResponse()
			if err != nil || !bytes.Equal(body, p) {
				t.Fatalf("got %q, err %v", body, err)
			}
		}
	})

	t.Run("two frames in one segment into the server", func(t *testing.T) {
		srv, err := serve("127.0.0.1:0", ServeOpts{}, verdictHandler)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		raw, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		var both []byte
		for _, p := range [][]byte{[]byte("1st"), []byte("2nd")} {
			both = binary.BigEndian.AppendUint32(both, uint32(len(p)))
			both = append(both, p...)
		}
		if _, err := raw.Write(both); err != nil {
			t.Fatal(err)
		}
		fr := newFrameReader(raw)
		for _, want := range []string{"1st", "2nd"} {
			body, err := fr.readResponse()
			if err != nil || string(body) != want {
				t.Fatalf("got %q, err %v, want %q", body, err, want)
			}
		}
	})

	t.Run("two frames in one segment into the client", func(t *testing.T) {
		// The peer answers the first request with both responses at once;
		// the second exchange must find its answer already buffered.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			fr := newFrameReader(conn)
			if _, err := fr.readFrame(); err != nil {
				return
			}
			conn.Write([]byte{0, 0, 0, 4, statusOK, 'o', 'n', 'e', 0, 0, 0, 4, statusOK, 't', 'w', 'o'})
			fr.readFrame() // the second request
			fr.readFrame() // held open until the client hangs up
		}()
		c, err := DialConn(ln.Addr().String(), noRetryOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for _, want := range []string{"one", "two"} {
			resp, err := c.Exchange([]byte("q"))
			if err != nil || string(resp) != want {
				t.Fatalf("got %q, err %v, want %q", resp, err, want)
			}
		}
	})
}

// TestNoBytesSurviveReconnect: the peer breaks connections mid-frame —
// sometimes cutting a reply short, sometimes sending a whole reply with
// the head of a phantom frame behind it — and two goroutines share the
// Conn. Every exchange must come back as the echo of its own request:
// nothing buffered from a dead connection may be read as an answer on
// the next one.
func TestNoBytesSurviveReconnect(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var served atomic.Int64
	var peers sync.WaitGroup
	peers.Add(1)
	go func() {
		defer peers.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			peers.Add(1)
			go func() {
				defer peers.Done()
				defer conn.Close()
				fr := newFrameReader(conn)
				for {
					req, err := fr.readFrame()
					if err != nil {
						return
					}
					reply := binary.BigEndian.AppendUint32(nil, uint32(1+len(req)))
					reply = append(append(reply, statusOK), req...)
					switch served.Add(1) % 5 {
					case 2: // cut the reply short and hang up
						conn.Write(reply[:len(reply)/2])
						return
					case 4: // whole reply, then the head of a frame that never ends, then hang up
						conn.Write(append(reply, 0, 0, 0, 9, statusOK, 'j', 'u', 'n', 'k'))
						return
					}
					if _, err := conn.Write(reply); err != nil {
						return
					}
				}
			}()
		}
	}()
	defer func() {
		ln.Close()
		peers.Wait()
	}()

	opts := fastOpts()
	opts.MaxRetries = 4
	c := NewConn(ln.Addr().String(), opts)
	defer c.Close()
	var clients sync.WaitGroup
	for g := 0; g < 2; g++ {
		clients.Add(1)
		go func(g int) {
			defer clients.Done()
			for i := 0; i < 60; i++ {
				req := []byte(fmt.Sprintf("goroutine %d request %d", g, i))
				resp, err := c.Exchange(req)
				if err != nil {
					t.Errorf("%s: %v", req, err)
					return
				}
				if !bytes.Equal(resp, req) {
					t.Errorf("sent %q, got %q", req, resp)
					return
				}
			}
		}(g)
	}
	clients.Wait()
	if c.Stats().Reconnects == 0 {
		t.Error("the peer never broke a connection: the test exercised nothing")
	}
}

// TestHostileHeaderCostsOneChunk: a header announcing 16 MiB with nothing
// behind it reserves one growth chunk, not the frame; one announcing more
// is refused with a typed error before any reservation.
func TestHostileHeaderCostsOneChunk(t *testing.T) {
	hdr := binary.BigEndian.AppendUint32(nil, maxFrame)
	fr := newFrameReader(bytes.NewReader(append(hdr, "only this"...)))
	if _, err := fr.readFrame(); err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want unexpected EOF", err)
	}
	if cap(fr.big) > growChunk {
		t.Errorf("a bare header reserved %d bytes, more than one %d-byte chunk", cap(fr.big), growChunk)
	}
	over := binary.BigEndian.AppendUint32(nil, maxFrame+1)
	if _, err := newFrameReader(bytes.NewReader(over)).readFrame(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// TestExchangeAllocs caps what one in-process exchange allocates, both
// ends counted: the client's copy of the reply and the server's string
// of the query, with everything else — frames, word set, enumeration
// scratch, matches — reused.
func TestExchangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	c, ix, _ := testSetup(t, 2000)
	ixSrv, err := NewIndexServer("127.0.0.1:0", ServeOpts{}, CoreBackend{Index: ix})
	if err != nil {
		t.Fatal(err)
	}
	defer ixSrv.Close()
	adSrv, err := NewAdServer("127.0.0.1:0", ServeOpts{}, c.Ads)
	if err != nil {
		t.Fatal(err)
	}
	defer adSrv.Close()
	cl, err := Dial(ixSrv.Addr(), adSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	query := []byte(c.Ads[0].Phrase + " zzextra")
	ids, err := cl.QueryIDs(string(query))
	if err != nil || len(ids) == 0 {
		t.Fatalf("warm-up query: %v ids, err %v", len(ids), err)
	}
	records := AppendRecordsRequest(nil, 0, query)
	var recIDs []uint64
	var recMeta []AdMeta
	for _, tc := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"Exchange", 3, func() {
			if _, err := cl.IndexConn().Exchange(query); err != nil {
				t.Fatal(err)
			}
		}},
		{"ExchangeRecords into reused buffers", 2, func() {
			var err error
			if recIDs, recMeta, _, err = cl.IndexConn().ExchangeRecords(recIDs[:0], recMeta[:0], records, time.Time{}); err != nil {
				t.Fatal(err)
			}
		}},
		{"FetchMeta", 2, func() {
			if _, err := cl.FetchMeta(ids); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		tc.fn() // warm the buffers
		if got := testing.AllocsPerRun(200, tc.fn); got > tc.max {
			t.Errorf("%s: %.1f allocs per exchange, want <= %.0f", tc.name, got, tc.max)
		} else {
			t.Logf("%s: %.1f allocs per exchange", tc.name, got)
		}
	}
}
