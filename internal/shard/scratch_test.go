package shard

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"testing"
	"time"

	"adindex/internal/corpus"
	"adindex/internal/multiserver"
)

// TestCorruptShardReplyIsAnError: a shard answering a frame whose count
// overflows — an ID frame's 20 00 00 00 once reserved 4 GiB and then
// panicked in the front end, where nothing recovers — must be one failed
// shard with a typed error, on a frozen route and a live one. So must
// every other wrong answer to the records request: a record frame cut
// short, and a well-formed ID frame — empty or not — from a backend that
// ignored the tag, which must never read as "no matches".
func TestCorruptShardReplyIsAnError(t *testing.T) {
	good, err := multiserver.NewIndexServer("127.0.0.1:0", multiserver.ServeOpts{}, echoBackend{0})
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	const q = "any query"
	goodIDs := echoBackend{0}.matchIDs(q)
	table, err := NewRoutingTable(2, 2)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		reply []byte
	}{
		{"ID frame, count overflow", []byte{0x20, 0, 0, 0}},
		{"record frame, count overflow", []byte{0xAD, 0x80, 0, 0, 0}},
		{"record frame cut short", []byte{0xAD, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 7}},
		{"empty ID frame", multiserver.EncodeIDs(nil)},
		{"ID frame", multiserver.EncodeIDs([]uint64{30, 31})},
		{"empty reply", nil},
	} {
		bad, err := multiserver.NewIndexServer("127.0.0.1:0", multiserver.ServeOpts{}, multiserver.BackendFunc(func(dst []byte, _ multiserver.Request) ([]byte, error) {
			return append(dst, tc.reply...), nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		replicas := [][]string{{good.Addr()}, {bad.Addr()}}
		for _, route := range []*Route{frozenRoute(replicas), {Table: *table, Replicas: replicas}} {
			for _, partial := range []bool{false, true} {
				nc, err := DialRoute(func() (*Route, error) { return route, nil }, "", Options{AllowPartial: partial})
				if err != nil {
					t.Fatal(err)
				}
				res, err := nc.QueryResult(q)
				epoch := route.Table.Epoch
				switch {
				case !partial:
					if !errors.Is(err, multiserver.ErrMalformed) {
						t.Errorf("%s, epoch %d: strict query: res %+v, err %v; want ErrMalformed", tc.name, epoch, res, err)
					}
				case err != nil || !res.Degraded || !slices.Equal(res.FailedShards, []int{1}) || !slices.Equal(res.IDs, goodIDs):
					t.Errorf("%s, epoch %d: partial query: res %+v, err %v; want shard 1 failed and shard 0's answer", tc.name, epoch, res, err)
				case !slices.Equal(res.Meta, echoMeta(goodIDs)):
					t.Errorf("%s, epoch %d: partial query: shard 0's records got lost: %+v", tc.name, epoch, res)
				}
				nc.Close()
			}
		}
		bad.Close()
	}
}

// echoBackend answers IDs that are a function of the query and of the
// shard, so an answer that strayed from another query or another shard's
// buffer is recognizable — and metadata that is a function of the ID, so
// a record that strayed from its ID is too. It answers every request with
// records. Every third query's records go out in descending order.
type echoBackend struct{ shard uint64 }

func (b echoBackend) matchIDs(query string) []uint64 {
	h := fnv.New64a()
	h.Write([]byte(query))
	base := h.Sum64() >> 8
	n := int(base%5) + 1
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = base + uint64(i)*8 + b.shard
	}
	return ids
}

func (b echoBackend) AppendMatch(dst []byte, req multiserver.Request) ([]byte, error) {
	ids := b.matchIDs(req.Query)
	if ids[0]%3 == 0 {
		slices.Reverse(ids)
	}
	ads := make([]corpus.Ad, len(ids))
	for i, m := range echoMeta(ids) {
		ads[i] = corpus.Ad{ID: ids[i], Meta: corpus.Meta{BidMicros: m.BidMicros, ClickRate: m.ClickRate}}
	}
	return multiserver.AppendAdRecords(dst, ads, 0), nil
}

func echoMeta(ids []uint64) []multiserver.AdMeta {
	meta := make([]multiserver.AdMeta, len(ids))
	for i, id := range ids {
		meta[i] = multiserver.AdMeta{BidMicros: -int64(id % 1e9), ClickRate: uint16(id)}
	}
	return meta
}

func wantEcho(query string, shards int) []uint64 {
	var want []uint64
	for s := 0; s < shards; s++ {
		want = append(want, echoBackend{uint64(s)}.matchIDs(query)...)
	}
	slices.Sort(want)
	return want
}

// TestFanOutScratchIsolation: queries running at once share pooled
// scratches, per-socket buffers and — with hedging — attempts that
// outlive their query. Every one of them must still get exactly its own
// merged answer, its IDs each with its own record, on a frozen route and
// a live one. Run under -race.
func TestFanOutScratchIsolation(t *testing.T) {
	const shards = 3
	var servers [][]string
	for s := 0; s < shards; s++ {
		var addrs []string
		for r := 0; r < 2; r++ {
			srv, err := multiserver.NewIndexServer("127.0.0.1:0", multiserver.ServeOpts{}, echoBackend{uint64(s)})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			addrs = append(addrs, srv.Addr())
		}
		servers = append(servers, addrs)
	}
	table, err := NewRoutingTable(shards, shards)
	if err != nil {
		t.Fatal(err)
	}
	routes := map[string]*Route{
		"frozen": frozenRoute(servers),
		"live":   {Table: *table, Replicas: servers},
	}

	for kind, route := range routes {
		for _, hedge := range []time.Duration{0, time.Microsecond} {
			nc, err := DialRoute(func() (*Route, error) { return route, nil }, "", Options{HedgeAfter: hedge})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 100; i++ {
						q := fmt.Sprintf("query %d of goroutine %d", i, g)
						res, err := nc.QueryResultDeadline(q, time.Now().Add(5*time.Second))
						if err != nil {
							t.Errorf("%s, hedge %v, %q: %v", kind, hedge, q, err)
							return
						}
						want := wantEcho(q, shards)
						if !slices.Equal(res.IDs, want) || len(res.Meta) != len(want) {
							t.Errorf("%s, hedge %v, %q: got %v (%d meta), want %v", kind, hedge, q, res.IDs, len(res.Meta), want)
							return
						}
						if !slices.Equal(res.Meta, echoMeta(want)) {
							t.Errorf("%s, hedge %v, %q: records %+v strayed from their IDs %v", kind, hedge, q, res.Meta, want)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			nc.Close()
		}
	}
}
