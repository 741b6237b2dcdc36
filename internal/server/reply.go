// The read path's per-request state and reply assembly: one scan of the raw
// query string, one tokenization into pooled scratch, append-form
// envelopes around the encoded "ads" body that the cache stores, and the
// reply writer that puts each reply on its connection in one write.
//
// Buffer ownership. A searchScratch belongs to one request from
// getSearchScratch to putSearchScratch, which runs after the response has
// been written. writeBody's one write reads the body in place: the
// connection holds what net/http wrote of the reply, the tail of a long
// body as a reference into buf, until the writev returns, and writeBody
// returns only then, so nothing reads the scratch afterwards. (Through
// Handler alone, net/http copies what Write is given.) Everything in the
// scratch is the request's own — tokens and words alias the request's
// query string, key and buf are bytes built for this request, ads are the
// match's copies, spans locate ads in buf — and the cache never keeps any
// of it: cachePut copies key and ads, and a first sighting keeps the key's
// fingerprint only. The other direction is copy-only as well: a hit appends
// the cached body into buf while the cache holds the entry, and buf never
// refers into the cache.
package server

import (
	"context"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"adindex"
	"adindex/internal/corpus"
	"adindex/internal/textnorm"
)

// searchParams scans a raw URL query string once for the three parameters
// /search reads. It answers what url.Values.Get would — the first
// occurrence of a key wins, and a pair with a bad escape or a semicolon is
// dropped — without building the map.
func searchParams(raw string) (q, typ, rewrite string) {
	var vals [len(searchKeys)]string
	var seen [len(searchKeys)]bool
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		k, err := url.QueryUnescape(k)
		if err != nil {
			continue
		}
		i := slices.Index(searchKeys[:], k)
		if i < 0 || seen[i] {
			continue
		}
		if v, err = url.QueryUnescape(v); err != nil {
			continue
		}
		vals[i], seen[i] = v, true
	}
	return vals[0], vals[1], vals[2]
}

var searchKeys = [...]string{"q", "type", "rewrite"}

// searchScratch is the pooled per-request state of /search and
// /search/batch.
type searchScratch struct {
	// tokens is the query's ordered token sequence; only exact and phrase
	// queries (whose key it is) fill it.
	tokens []string
	// words is the query's canonical word set: what broad match keys by
	// and what the word version lookup reads, for every type.
	words []string
	// key is the cache key and the source of the quarantine fingerprint.
	key []byte
	// ads receives the match's copy-out on a miss that needs Ads — a
	// rewritten query's, or any with Config.Selection; a plain miss is
	// encoded from the index into buf. A batch's misses reuse it, each
	// clearing the one before.
	ads []adindex.Ad
	// buf is the response body.
	buf []byte
	// spans locate the ads that misses encoded into buf, for their puts:
	// a batch's misses append theirs one after another, each put reading
	// its own.
	spans []adindex.AdSpan
}

// maxPooledBuf bounds the response buffer a scratch keeps between
// requests, and maxPooledAds its copy-out slice (8192 ads of about 120 B:
// the same mebibyte) and its spans; a larger one (a reply of thousands of
// ads) is dropped rather than pinned by the pool.
const (
	maxPooledBuf = 1 << 20
	maxPooledAds = 8 << 10
)

var searchScratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

func getSearchScratch() *searchScratch {
	return searchScratchPool.Get().(*searchScratch)
}

// putSearchScratch returns sc to the pool holding no reference to the
// request's strings or to the ads' string arena. Folding shrinks words
// after writing past its final length, so the string buffers are cleared
// to capacity (a few dozen entries); ads only ever grows by append, so its
// length is what was used — nothing on a hit.
func putSearchScratch(sc *searchScratch) {
	clear(sc.tokens[:cap(sc.tokens)])
	clear(sc.words[:cap(sc.words)])
	clear(sc.ads)
	sc.ads = sc.ads[:0]
	if cap(sc.ads) > maxPooledAds {
		sc.ads = nil
	}
	if cap(sc.buf) > maxPooledBuf {
		sc.buf = nil
	}
	if cap(sc.spans) > maxPooledAds {
		sc.spans = nil
	}
	searchScratchPool.Put(sc)
}

// tokenize is the request's one pass over the query text. It fills words
// (and tokens, for the order-sensitive types) and builds the cache key:
// broad match is order- and duplicate-insensitive, so all orderings of the
// same word set share one entry, keyed by the canonical set; exact and
// phrase match depend on token order, so they key by the normalized token
// sequence.
func (sc *searchScratch) tokenize(matchType, q string) {
	sc.key = append(sc.key[:0], matchType[0], 0)
	if matchType == "broad" {
		sc.words = textnorm.AppendWordSet(sc.words[:0], q)
		sc.key = textnorm.AppendSetKey(sc.key, sc.words)
		return
	}
	sc.tokens = textnorm.AppendTokens(sc.tokens[:0], q)
	sc.words = textnorm.FoldTokens(append(sc.words[:0], sc.tokens...), 0)
	sc.key = textnorm.AppendSetKey(sc.key, sc.tokens)
}

// appendSearchHead appends a result object up to and including `"ads":`;
// the encoded ads array and closeResult complete it. An empty typ is a
// batch result, which has no type field. Together they emit what
// encoding/json does for the reply as a struct (searchResponse and
// batchResult in reply_test.go, which hold them to it).
func appendSearchHead(dst []byte, q, typ string, matched int, cached bool) []byte {
	dst = append(dst, `{"query":`...)
	dst = corpus.AppendJSONString(dst, q)
	if typ != "" {
		dst = append(dst, `,"type":`...)
		dst = corpus.AppendJSONString(dst, typ)
	}
	dst = append(dst, `,"matched":`...)
	dst = strconv.AppendInt(dst, int64(matched), 10)
	dst = append(dst, `,"cached":`...)
	dst = strconv.AppendBool(dst, cached)
	return append(dst, `,"ads":`...)
}

// appendFlags appends the overload-armor fields of a result that are set.
func appendFlags(dst []byte, truncated bool, costSpent int64) []byte {
	if truncated {
		dst = append(dst, `,"truncated":true`...)
	}
	if costSpent != 0 {
		dst = append(dst, `,"cost_spent":`...)
		dst = strconv.AppendInt(dst, costSpent, 10)
	}
	return dst
}

// jsonContentType is the shared Content-Type header value; a header's
// value slice is only ever read.
var jsonContentType = []string{"application/json"}

// writeBody sends an assembled JSON body with its length. On a connection
// Start accepted, the whole reply — status line, headers and body — leaves
// in one write before writeBody returns: the connection holds what net/http
// writes of it and sends it on release. body must not change until then.
// Through Handler alone (no such connection) it is one Write into net/http.
func (s *Server) writeBody(w http.ResponseWriter, r *http.Request, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(body))}
	rc, _ := r.Context().Value(replyConnKey{}).(*replyConn)
	rc.hold(body)
	defer rc.release() // after a panic, what net/http thinks it wrote is written
	_, err := w.Write(body)
	if err == nil && rc != nil {
		if err = http.NewResponseController(w).Flush(); err == nil {
			err = rc.release()
		}
	}
	if err != nil {
		s.cfg.Logger.Printf("write response: %v", err)
	}
}

// replyListener accepts the connections Start serves: each can hold a
// reply.
type replyListener struct {
	*net.TCPListener
	// onAccept, when set, sees each connection as it is accepted (tests).
	onAccept func(*replyConn)
}

// Accept implements net.Listener.
func (l replyListener) Accept() (net.Conn, error) {
	c, err := l.AcceptTCP()
	if err != nil {
		return nil, err
	}
	rc := &replyConn{TCPConn: c}
	if l.onAccept != nil {
		l.onAccept(rc)
	}
	return rc, nil
}

// replyConnKey is the context key under which http.Server.ConnContext puts
// a request's *replyConn.
type replyConnKey struct{}

// connContext is the http.Server's ConnContext: it lets writeBody find the
// connection a request came in on.
func connContext(ctx context.Context, c net.Conn) context.Context {
	if rc, ok := c.(*replyConn); ok {
		return context.WithValue(ctx, replyConnKey{}, rc)
	}
	return ctx
}

// heldCopyBytes bounds what a connection copies of a held reply: the
// contents of net/http's 4 KiB connection buffer, flushed at most twice
// for one reply (once when the body first overflows it, once at the end).
const heldCopyBytes = 8 << 10

// replyConn is a server connection that can hold one reply while net/http
// writes it. Unheld, every Write goes straight to the socket: /healthz,
// error replies and net/http's own writes. Held (writeBody, from hold to
// release), a Write of the body's tail — net/http writes a long body past
// its buffer directly — is referenced in place, and anything else, which
// comes out of net/http's buffer and is reused once Write returns, is
// copied into copied; release sends them all in one writev. Only the
// connection's serving goroutine holds, writes and releases.
type replyConn struct {
	*net.TCPConn
	held bool
	body []byte
	// copied has capacity heldCopyBytes from the first hold on and never
	// grows, so the held slices of it stay valid.
	copied []byte
	// bufs is the held reply in order; segs backs it.
	bufs net.Buffers
	segs [4][]byte
	// writes counts the socket writes made, for tests.
	writes atomic.Int64
}

// hold starts holding the reply whose body is body. A nil rc (a request
// not accepted by Start) holds nothing.
func (rc *replyConn) hold(body []byte) {
	if rc == nil {
		return
	}
	if rc.copied == nil {
		rc.copied = make([]byte, 0, heldCopyBytes)
	}
	rc.held, rc.body, rc.bufs = true, body, rc.segs[:0]
}

// Write implements net.Conn.
func (rc *replyConn) Write(p []byte) (int, error) {
	if !rc.held {
		rc.writes.Add(1)
		return rc.TCPConn.Write(p)
	}
	if n := len(p); n > 0 && n <= len(rc.body) && &p[n-1] == &rc.body[len(rc.body)-1] {
		rc.bufs = append(rc.bufs, p)
		return n, nil
	}
	if len(rc.copied)+len(p) > cap(rc.copied) {
		// More than a reply's worth of buffered writes: send what is held
		// rather than grow.
		if err := rc.send(); err != nil {
			return 0, err
		}
		if len(p) > cap(rc.copied) {
			rc.writes.Add(1)
			return rc.TCPConn.Write(p)
		}
	}
	at := len(rc.copied)
	rc.copied = append(rc.copied, p...)
	rc.bufs = append(rc.bufs, rc.copied[at:])
	return len(p), nil
}

// release stops holding and sends the held reply in one writev. It is
// idempotent, and nil-safe like hold.
func (rc *replyConn) release() error {
	if rc == nil || !rc.held {
		return nil
	}
	rc.held, rc.body = false, nil
	return rc.send()
}

// send writes the held slices in one writev and empties them. A failed
// write closes the connection, as net/http does after its own write fails:
// the client has a partial reply, and the stream cannot be reused.
func (rc *replyConn) send() error {
	if len(rc.bufs) == 0 {
		return nil
	}
	rc.writes.Add(1)
	_, err := rc.bufs.WriteTo(rc.TCPConn)
	clear(rc.segs[:])
	rc.bufs, rc.copied = rc.segs[:0], rc.copied[:0]
	if err != nil {
		rc.TCPConn.Close()
	}
	return err
}
