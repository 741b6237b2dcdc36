package multiserver

import (
	"errors"
	"sync"
	"testing"
)

// epochBackend is a test EpochBackend: a fixed ID answer guarded by a
// settable routing epoch.
type epochBackend struct {
	mu    sync.Mutex
	epoch uint64
	ids   []uint64
}

func (b *epochBackend) AppendMatchIDsAtEpoch(dst []byte, epoch uint64, tagged bool, query string) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if tagged && epoch != b.epoch {
		return nil, &StaleEpochError{ClientEpoch: epoch, ServerEpoch: b.epoch}
	}
	return AppendIDs(dst, b.ids, 0), nil
}

func (b *epochBackend) bump() {
	b.mu.Lock()
	b.epoch++
	b.mu.Unlock()
}

func TestEpochRequestRoundTrip(t *testing.T) {
	body := []byte("cheap flights")
	req := EncodeEpochRequest(42, body)
	epoch, got, tagged, err := DecodeEpochRequest(req)
	if err != nil || !tagged || epoch != 42 || string(got) != string(body) {
		t.Fatalf("DecodeEpochRequest = %d %q tagged=%v err=%v", epoch, got, tagged, err)
	}
	// Untagged requests pass through unchanged.
	epoch, got, tagged, err = DecodeEpochRequest(body)
	if err != nil || tagged || epoch != 0 || string(got) != string(body) {
		t.Fatalf("untagged DecodeEpochRequest = %d %q tagged=%v err=%v", epoch, got, tagged, err)
	}
	// A tagged header torn below 9 bytes is an error, not a silent query.
	if _, _, _, err := DecodeEpochRequest(req[:5]); err == nil {
		t.Fatalf("short epoch request decoded cleanly")
	}
}

// A stale-epoch rejection must arrive as a typed error without burning
// retries or tripping the breaker — the backend is alive.
func TestStaleEpochOverWire(t *testing.T) {
	be := &epochBackend{epoch: 1, ids: []uint64{3, 9}}
	srv, err := NewEpochIndexServer("127.0.0.1:0", ServeOpts{}, be)
	if err != nil {
		t.Fatalf("NewEpochIndexServer: %v", err)
	}
	defer srv.Close()
	conn, err := DialConn(srv.Addr(), ConnOpts{})
	if err != nil {
		t.Fatalf("DialConn: %v", err)
	}
	defer conn.Close()

	// Current epoch: served.
	resp, err := conn.Exchange(EncodeEpochRequest(1, []byte("q")))
	if err != nil {
		t.Fatalf("exchange at current epoch: %v", err)
	}
	if ids, _ := DecodeIDs(resp); len(ids) != 2 {
		t.Fatalf("got %d ids, want 2", len(ids))
	}

	// Epoch bumps server-side: the stale request gets the typed rejection.
	be.bump()
	_, err = conn.Exchange(EncodeEpochRequest(1, []byte("q")))
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
	resp, err = conn.Exchange(EncodeEpochRequest(2, []byte("q")))
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
