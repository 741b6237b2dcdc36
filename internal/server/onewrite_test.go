package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"adindex"
)

// rawClient speaks HTTP/1.1 over one keep-alive connection and keeps the
// exact bytes of each reply.
type rawClient struct {
	t    *testing.T
	conn net.Conn
	raw  bytes.Buffer
	br   *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	c := &rawClient{t: t, conn: conn}
	c.br = bufio.NewReader(io.TeeReader(conn, &c.raw))
	return c
}

// do sends one request and returns the status and the reply's bytes,
// status line to the body's end.
func (c *rawClient) do(method, target, body string) (int, []byte) {
	c.t.Helper()
	req := fmt.Sprintf("%s %s HTTP/1.1\r\nHost: test\r\n", method, target)
	if method == "POST" {
		req += fmt.Sprintf("Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	c.raw.Reset()
	c.conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(c.conn, req+"\r\n"+body); err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.t.Fatalf("%s %.60s: %v", method, target, err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		c.t.Fatal(err)
	}
	resp.Body.Close()
	if c.br.Buffered() != 0 {
		c.t.Fatalf("%s %.60s: %d bytes past the reply", method, target, c.br.Buffered())
	}
	return resp.StatusCode, bytes.Clone(c.raw.Bytes())
}

// stable blanks what differs from one ask of a reply to the next: the
// Date and Content-Length headers and the handler's own took_us (whose
// digits move the length).
func stable(reply []byte) string {
	head, body, _ := bytes.Cut(reply, []byte("\r\n\r\n"))
	var b strings.Builder
	for _, line := range strings.Split(string(head), "\r\n") {
		if k, _, _ := strings.Cut(line, ":"); k == "Date" || k == "Content-Length" {
			line = k + ": _"
		}
		b.WriteString(line + "\r\n")
	}
	b.WriteString("\r\n")
	const took = `"took_us":`
	if i := bytes.Index(body, []byte(took)); i >= 0 {
		j := i + len(took)
		k := j
		for k < len(body) && '0' <= body[k] && body[k] <= '9' {
			k++
		}
		b.Write(body[:j])
		b.WriteByte('_')
		body = body[k:]
	}
	b.Write(body)
	return b.String()
}

// acceptedConns returns the connections s accepts, as it accepts them.
func acceptedConns(s *Server) <-chan *replyConn {
	ch := make(chan *replyConn, 16)
	s.onAccept = func(rc *replyConn) { ch <- rc }
	return ch
}

// TestOneWritePerReply: over a real socket, each reply writeBody sends —
// /search hits and misses from about 100 B to over 1 MiB, straddling
// net/http's 4 KiB connection buffer, a /search/batch reply, a remote-mode
// reply — reaches the connection in exactly one write, byte for byte what
// net/http sends for the same request through Handler alone. Every request
// of a kind shares one keep-alive connection; a panicking query's 500 and
// /healthz pass through unchanged. Before replies were held, every reply
// of more than about 3.9 KiB took two writes.
func TestOneWritePerReply(t *testing.T) {
	// "hot" ads carry a long exclusion keyword, so that 1 200 of them make
	// a reply of over 1 MiB (a remote reply, IDs and metadata only, stays
	// about 50 KB).
	var ads []adindex.Ad
	long := []string{strings.Repeat("z", 900)}
	for i, g := range []struct {
		word string
		n    int
	}{{"mild", 24}, {"warm", 320}, {"hot", 1200}} {
		for j := 0; j < g.n; j++ {
			id := uint64((i+1)*100000 + j)
			meta := adindex.Meta{BidMicros: int64(id), ClickRate: uint16(j)}
			if g.word == "hot" {
				meta.Exclusions = long
			}
			ads = append(ads, adindex.NewAd(id, g.word, meta))
		}
	}
	ix := adindex.Build(ads, adindex.Options{})
	const poison = "mild poison"
	s := New(ix, Config{})
	s.panicOn = poison
	conns := acceptedConns(s)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { drain(s) })
	ref := New(ix, Config{Logger: s.cfg.Logger})
	ref.panicOn = poison
	refSrv := httptest.NewServer(ref.Handler())
	t.Cleanup(refSrv.Close)

	held, plain := dialRaw(t, s.Addr()), dialRaw(t, refSrv.Listener.Addr().String())
	rc := <-conns

	// bodyLen is the length of the /search body of q, as net/http sends it.
	bodyLen := func(q string) int {
		_, reply := dialRaw(t, refSrv.Listener.Addr().String()).do("GET", searchTarget(q, "broad"), "")
		_, body, _ := bytes.Cut(reply, []byte("\r\n\r\n"))
		return len(body)
	}
	// sized pads "mild" with a word no ad has until its body is about n
	// bytes; took_us moves it by a few.
	sized := func(n int) string {
		pad := n - bodyLen("mild x")
		if pad < 1 {
			t.Fatalf("mild replies are %d bytes, over the %d wanted", bodyLen("mild x"), n)
		}
		return "mild " + strings.Repeat("x", pad+1)
	}
	queries := []struct {
		name     string
		q        string
		min, max int
	}{
		{"miss ~100 B", "nothing matches", 60, 200},
		{"just under 4 KiB", sized(3900), 3850, 3950},
		{"just over 4 KiB", sized(4200), 4150, 4250},
		{"~40 KiB", "warm", 30 << 10, 50 << 10},
		{"over 1 MiB", "hot", 1 << 20, 4 << 20},
	}
	check := func(name string, c *rawClient, method, target, body string, wantStatus int) {
		t.Helper()
		before := rc.writes.Load()
		code, got := c.do(method, target, body)
		if n := rc.writes.Load() - before; n != 1 {
			t.Errorf("%s: %d-byte reply in %d writes, want 1", name, len(got), n)
		}
		if code != wantStatus {
			t.Errorf("%s: status %d, want %d", name, code, wantStatus)
		}
		_, want := plain.do(method, target, body)
		if stable(got) != stable(want) {
			t.Errorf("%s: reply differs from net/http's own\n got %.300q\nwant %.300q", name, got, want)
		}
	}
	for _, tc := range queries {
		// A miss that leaves a ghost, a miss that stores, a hit.
		for ask := 0; ask < 3; ask++ {
			target := searchTarget(tc.q, "broad")
			check(fmt.Sprintf("%s, ask %d", tc.name, ask), held, "GET", target, "", http.StatusOK)
		}
		if n := bodyLen(tc.q); n < tc.min || n > tc.max {
			t.Errorf("%s: body is %d bytes, want %d..%d", tc.name, n, tc.min, tc.max)
		}
	}
	check("batch", held, "POST", "/search/batch", `{"queries":["mild","warm","nothing matches"]}`, http.StatusOK)
	check("panic", held, "GET", searchTarget(poison, "broad"), "", http.StatusInternalServerError)
	check("after the panic", held, "GET", searchTarget("warm", "broad"), "", http.StatusOK)
	check("healthz", held, "GET", "/healthz", "", http.StatusOK)
	check("error reply", held, "GET", "/search?type=nope&q=mild", "", http.StatusBadRequest)

	// Remote mode: the front end of a two-shard elastic cluster, through
	// Start and through Handler alone (it has no cache to tell them apart).
	front := startElasticFrontEnd(t, ads)
	conns = acceptedConns(front)
	if err := front.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { drain(front) })
	frontRef := httptest.NewServer(front.Handler())
	t.Cleanup(frontRef.Close)
	held, plain = dialRaw(t, front.Addr()), dialRaw(t, frontRef.Listener.Addr().String())
	rc = <-conns
	for _, q := range []string{"nothing matches", "mild", "warm", "hot"} {
		check("remote "+q, held, "GET", "/search?q="+url.QueryEscape(q), "", http.StatusOK)
	}
	if cap(rc.copied) != heldCopyBytes {
		t.Errorf("after the remote replies the connection holds a %d-byte copy buffer, want %d", cap(rc.copied), heldCopyBytes)
	}
}

// TestReplyConnHoldIsBounded: a held connection copies at most
// heldCopyBytes of what does not alias the body. Writes past that — more
// than a reply's worth of buffered output, which net/http never produces —
// send what is held early instead of growing the buffer, and the stream
// still arrives whole and in order.
func TestReplyConnHoldIsBounded(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	l := replyListener{TCPListener: ln.(*net.TCPListener)}
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	c, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	rc := c.(*replyConn)
	defer rc.Close()

	body := bytes.Repeat([]byte("b"), 5000)
	var want []byte
	rc.hold(body)
	for i := 0; i < 3; i++ { // three buffers' worth of header bytes
		chunk := bytes.Repeat([]byte{'0' + byte(i)}, 4096)
		want = append(want, chunk...)
		if n, err := rc.Write(chunk); n != len(chunk) || err != nil {
			t.Fatalf("held write %d: %d, %v", i, n, err)
		}
	}
	want = append(want, body[1000:]...)
	rc.Write(body[1000:]) // the body's tail, held in place
	if err := rc.release(); err != nil {
		t.Fatal(err)
	}
	if n := rc.writes.Load(); n != 2 {
		t.Errorf("%d socket writes, want 2 (the first two buffers early, then the rest)", n)
	}
	if cap(rc.copied) != heldCopyBytes {
		t.Errorf("held copy buffer grew to %d bytes, want %d", cap(rc.copied), heldCopyBytes)
	}
	got := make([]byte, len(want))
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(client, got); err != nil || !bytes.Equal(got, want) {
		t.Errorf("the client read %d bytes (%v), not the %d written in order", len(got), err, len(want))
	}
}
