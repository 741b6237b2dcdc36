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

// TestCorruptShardReplyIsAnError: a shard answering the ID frame whose
// count times eight wraps to zero — the four bytes 20 00 00 00 — used to
// reserve 4 GiB and then panic in the front end, where nothing recovers.
// It must be one failed shard with a typed error. So must every wrong
// answer to a records request: the record frame with the same overflow, a
// frame cut short, and a well-formed ID frame — empty or not — from a
// backend that ignored the tag, which must never read as "no matches".
func TestCorruptShardReplyIsAnError(t *testing.T) {
	good, err := multiserver.NewIndexServer("127.0.0.1:0", multiserver.ServeOpts{}, echoBackend{0})
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	adSrv, err := multiserver.NewAdServer("127.0.0.1:0", multiserver.ServeOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer adSrv.Close()
	const q = "any query"
	goodIDs := echoBackend{0}.matchIDs(q)
	table, err := NewRoutingTable(2, 2)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		records bool
		reply   []byte
	}{
		{"ID frame, count overflow", false, []byte{0x20, 0, 0, 0}},
		{"record frame, count overflow", true, []byte{0xAD, 0x80, 0, 0, 0}},
		{"record frame cut short", true, []byte{0xAD, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 7}},
		{"empty ID frame for a records request", true, multiserver.EncodeIDs(nil)},
		{"ID frame for a records request", true, multiserver.EncodeIDs([]uint64{30, 31})},
		{"empty reply for a records request", true, nil},
	} {
		bad, err := multiserver.NewIndexServer("127.0.0.1:0", multiserver.ServeOpts{}, multiserver.BackendFunc(func(dst []byte, _ multiserver.Request) ([]byte, error) {
			return append(dst, tc.reply...), nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		replicas := [][]string{{good.Addr()}, {bad.Addr()}}
		route := frozenRoute(replicas)
		if tc.records {
			route = &Route{Table: *table, Replicas: replicas, Records: true}
		}
		for _, partial := range []bool{false, true} {
			nc, err := DialRoute(func() (*Route, error) { return route, nil }, adSrv.Addr(), Options{AllowPartial: partial})
			if err != nil {
				t.Fatal(err)
			}
			res, err := nc.QueryResult(q)
			switch {
			case !partial:
				if !errors.Is(err, multiserver.ErrMalformed) {
					t.Errorf("%s: strict query: res %+v, err %v; want ErrMalformed", tc.name, res, err)
				}
			case err != nil || !res.Degraded || !slices.Equal(res.FailedShards, []int{1}) || !slices.Equal(res.IDs, goodIDs):
				t.Errorf("%s: partial query: res %+v, err %v; want shard 1 failed and shard 0's answer", tc.name, res, err)
			case tc.records && (res.MetaMissing || !slices.Equal(res.Meta, echoMeta(goodIDs))):
				t.Errorf("%s: partial query: shard 0's records got lost: %+v", tc.name, res)
			}
			nc.Close()
		}
		bad.Close()
	}
}

// echoBackend answers IDs that are a function of the query and of the
// shard, so an answer that strayed from another query or another shard's
// buffer is recognizable — and, asked for records, metadata that is a
// function of the ID, so a record that strayed from its ID is too. Every
// third query's records go out in descending order.
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
	if !req.Records {
		return multiserver.AppendIDs(dst, ids, 0), nil
	}
	if ids[0]%3 == 0 {
		slices.Reverse(ids)
	}
	ads := make([]*corpus.Ad, len(ids))
	for i, m := range echoMeta(ids) {
		ads[i] = &corpus.Ad{ID: ids[i], Meta: corpus.Meta{BidMicros: m.BidMicros, ClickRate: m.ClickRate}}
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
// merged answer: its IDs from index servers, and from record-serving
// shards its IDs each with its own record. Run under -race.
func TestFanOutScratchIsolation(t *testing.T) {
	const shards = 3
	var idServers, recordServers [][]string
	for s := 0; s < shards; s++ {
		var ids, recs []string
		for r := 0; r < 2; r++ {
			srv, err := multiserver.NewIndexServer("127.0.0.1:0", multiserver.ServeOpts{}, echoBackend{uint64(s)})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			ids = append(ids, srv.Addr())
			if srv, err = multiserver.NewIndexServer("127.0.0.1:0", multiserver.ServeOpts{}, echoBackend{uint64(s)}); err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			recs = append(recs, srv.Addr())
		}
		idServers, recordServers = append(idServers, ids), append(recordServers, recs)
	}
	adSrv, err := multiserver.NewAdServer("127.0.0.1:0", multiserver.ServeOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer adSrv.Close()
	table, err := NewRoutingTable(shards, shards)
	if err != nil {
		t.Fatal(err)
	}
	routes := map[string]*Route{
		"ids":     frozenRoute(idServers),
		"records": {Table: *table, Replicas: recordServers, Records: true},
	}

	for kind, route := range routes {
		for _, hedge := range []time.Duration{0, time.Microsecond} {
			nc, err := DialRoute(func() (*Route, error) { return route, nil }, adSrv.Addr(), Options{HedgeAfter: hedge})
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
						if kind == "records" && !slices.Equal(res.Meta, echoMeta(want)) {
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
	if got := adSrv.Requests(); got != 2*4*100 {
		t.Errorf("ad server answered %d requests, want one per query of the ID routes and none of the record routes", got)
	}
}
