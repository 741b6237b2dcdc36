package multiserver

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"adindex/internal/corpus"
)

// epochBackend is a test Backend with a routing table: a fixed ID answer
// guarded by a settable routing epoch. Asked for records, it answers testAd
// of each ID.
type epochBackend struct {
	mu    sync.Mutex
	epoch uint64
	ids   []uint64
}

func (b *epochBackend) AppendMatch(dst []byte, req Request) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if req.Tagged && req.Epoch != b.epoch {
		return nil, &StaleEpochError{ClientEpoch: req.Epoch, ServerEpoch: b.epoch}
	}
	if req.Records {
		return AppendAdRecords(dst, testAds(b.ids), 0), nil
	}
	return AppendIDs(dst, b.ids, 0), nil
}

// recordAds returns the ads a record frame of ids and meta encodes.
func recordAds(ids []uint64, meta []AdMeta) []corpus.Ad {
	ads := make([]corpus.Ad, len(ids))
	for i, id := range ids {
		ads[i] = corpus.Ad{ID: id, Meta: corpus.Meta{BidMicros: meta[i].BidMicros, ClickRate: meta[i].ClickRate}}
	}
	return ads
}

// testAds returns one ad per ID with metadata that is a function of it.
func testAds(ids []uint64) []corpus.Ad {
	meta := make([]AdMeta, len(ids))
	for i, id := range ids {
		meta[i] = testMeta(id)
	}
	return recordAds(ids, meta)
}

func testMeta(id uint64) AdMeta { return AdMeta{BidMicros: -int64(id) * 1000, ClickRate: uint16(id)} }

func (b *epochBackend) bump() {
	b.mu.Lock()
	b.epoch++
	b.mu.Unlock()
}

func TestEpochRequestRoundTrip(t *testing.T) {
	body := []byte("cheap flights")
	wire := AppendEpochRequest(nil, 42, body)
	req, got, err := DecodeRequest(wire, time.Time{})
	if err != nil || req != (Request{Epoch: 42, Tagged: true}) || string(got) != string(body) {
		t.Fatalf("DecodeRequest = %+v %q err=%v", req, got, err)
	}
	// The records tag is the same header under its own magic.
	recWire := AppendRecordsRequest(nil, 42, body)
	req, got, err = DecodeRequest(recWire, time.Time{})
	if err != nil || req != (Request{Epoch: 42, Tagged: true, Records: true}) || string(got) != string(body) {
		t.Fatalf("records DecodeRequest = %+v %q err=%v", req, got, err)
	}
	// Untagged requests pass through unchanged.
	req, got, err = DecodeRequest(body, time.Time{})
	if err != nil || req != (Request{}) || string(got) != string(body) {
		t.Fatalf("untagged DecodeRequest = %+v %q err=%v", req, got, err)
	}
	// A tagged header torn below 9 bytes is an error, not a silent query.
	for _, torn := range [][]byte{wire[:5], recWire[:8]} {
		if _, _, err := DecodeRequest(torn, time.Time{}); !errors.Is(err, ErrMalformed) {
			t.Fatalf("short tagged request %x: err = %v, want ErrMalformed", torn, err)
		}
	}
}

// TestRecordsOverWire: an epoch-checking backend answers a records request with a
// record frame under the same epoch check, and each kind of answer to the
// other kind of request is a typed error, not a short result.
func TestRecordsOverWire(t *testing.T) {
	be := &epochBackend{epoch: 1, ids: []uint64{3, 9}}
	srv, err := NewIndexServer("127.0.0.1:0", ServeOpts{}, be)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := DialConn(srv.Addr(), ConnOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ids, meta, flags, err := conn.ExchangeRecords(nil, nil, AppendRecordsRequest(nil, 1, []byte("q")), time.Time{})
	if err != nil || flags != 0 || !slices.Equal(ids, be.ids) || !slices.Equal(meta, []AdMeta{testMeta(3), testMeta(9)}) {
		t.Fatalf("records exchange = %v %+v %#x, err %v", ids, meta, flags, err)
	}
	// The buffers handed in are the ones filled.
	ids, meta, _, err = conn.ExchangeRecords(ids[:0], meta[:0], AppendRecordsRequest(nil, 1, []byte("q")), time.Now().Add(time.Minute))
	if err != nil || len(ids) != 2 || len(meta) != 2 {
		t.Fatalf("records exchange into kept buffers = %v %+v, err %v", ids, meta, err)
	}
	if _, _, _, err := conn.ExchangeRecords(nil, nil, AppendRecordsRequest(nil, 7, []byte("q")), time.Time{}); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("records request at a retired epoch: err = %v, want stale epoch", err)
	}
	// An ID frame where records were asked for, and the reverse.
	if _, _, _, err := conn.ExchangeRecords(nil, nil, AppendEpochRequest(nil, 1, []byte("q")), time.Time{}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("ID frame decoded as records: err = %v, want ErrMalformed", err)
	}
	if resp, err := conn.Exchange(AppendRecordsRequest(nil, 1, []byte("q"))); err != nil {
		t.Fatal(err)
	} else if _, _, err := DecodeIDsFlags(resp); !errors.Is(err, ErrMalformed) {
		t.Fatalf("record frame decoded as IDs: err = %v, want ErrMalformed", err)
	}
	// Neither confusion cost the connection or the breaker anything.
	if st := conn.Stats(); st.Retries != 0 || st.Reconnects != 0 || st.Failures != 0 {
		t.Fatalf("stats after typed errors: %+v", st)
	}
}

// A stale-epoch rejection must arrive as a typed error without burning
// retries or tripping the breaker — the backend is alive.
func TestStaleEpochOverWire(t *testing.T) {
	be := &epochBackend{epoch: 1, ids: []uint64{3, 9}}
	srv, err := NewIndexServer("127.0.0.1:0", ServeOpts{}, be)
	if err != nil {
		t.Fatalf("NewIndexServer: %v", err)
	}
	defer srv.Close()
	conn, err := DialConn(srv.Addr(), ConnOpts{})
	if err != nil {
		t.Fatalf("DialConn: %v", err)
	}
	defer conn.Close()

	// Current epoch: served.
	resp, err := conn.Exchange(AppendEpochRequest(nil, 1, []byte("q")))
	if err != nil {
		t.Fatalf("exchange at current epoch: %v", err)
	}
	if ids, _ := DecodeIDs(resp); len(ids) != 2 {
		t.Fatalf("got %d ids, want 2", len(ids))
	}

	// Epoch bumps server-side: the stale request gets the typed rejection.
	be.bump()
	_, err = conn.Exchange(AppendEpochRequest(nil, 1, []byte("q")))
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale exchange error = %v, want ErrStaleEpoch", err)
	}
	var stale *StaleEpochError
	if !errors.As(err, &stale) || stale.ClientEpoch != 1 || stale.ServerEpoch != 2 {
		t.Fatalf("stale error = %+v, want client 1 server 2", stale)
	}
	if st := conn.Stats(); st.Retries != 0 || st.Failures != 0 {
		t.Fatalf("stale rejection burned budget: %+v", st)
	}
	if s := conn.Breaker().State(); s != BreakerClosed {
		t.Fatalf("breaker %v after stale rejection, want closed", s)
	}

	// The stream stays in sync: the refreshed request is served on the
	// same connection with zero reconnects.
	resp, err = conn.Exchange(AppendEpochRequest(nil, 2, []byte("q")))
	if err != nil {
		t.Fatalf("exchange after refresh: %v", err)
	}
	if ids, _ := DecodeIDs(resp); len(ids) != 2 {
		t.Fatalf("got %d ids after refresh, want 2", len(ids))
	}
	if st := conn.Stats(); st.Reconnects != 0 {
		t.Fatalf("stale rejection forced %d reconnects, want 0", st.Reconnects)
	}

	// Untagged legacy requests are served unchecked.
	if _, err := conn.Exchange([]byte("legacy query")); err != nil {
		t.Fatalf("legacy exchange: %v", err)
	}
}
