// The read path's per-request state and reply assembly: one scan of the raw
// query string, one tokenization into pooled scratch, and append-form
// envelopes around the encoded "ads" body that the cache stores.
//
// Buffer ownership. A searchScratch belongs to one request from
// getSearchScratch to putSearchScratch, which runs after the response has
// been written: net/http copies what Write is given, so nothing reads the
// scratch afterwards. Everything in it is the request's own — tokens and
// words alias the request's query string, key and buf are bytes built for
// this request, ads are the match's copies — and the cache never keeps any
// of it: cachePut copies key and body. The other direction is copy-only as
// well: a hit appends the cached body into buf while the cache holds the
// entry, and buf never refers into the cache.
package server

import (
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"

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
	// and what the workload sample records, for every type.
	words []string
	// key is the cache key and the source of the quarantine fingerprint.
	key []byte
	// ads receives the match's copy-out on a miss; a batch's misses reuse
	// it, each clearing the one before.
	ads []adindex.Ad
	// buf is the response body.
	buf []byte
}

// maxPooledBuf bounds the response buffer a scratch keeps between
// requests, and maxPooledAds its copy-out slice (8192 ads of about 120 B:
// the same mebibyte); a larger one (a reply of thousands of ads) is
// dropped rather than pinned by the pool.
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
func appendFlags(dst []byte, truncated, cutoff bool, costSpent int64) []byte {
	if truncated {
		dst = append(dst, `,"truncated":true`...)
	}
	if cutoff {
		dst = append(dst, `,"cutoff_applied":true`...)
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

// writeBody sends an assembled JSON body with its length, in one Write.
func (s *Server) writeBody(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(body))}
	if _, err := w.Write(body); err != nil {
		s.cfg.Logger.Printf("write response: %v", err)
	}
}
