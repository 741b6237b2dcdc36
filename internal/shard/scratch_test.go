package shard

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"testing"
	"time"

	"adindex/internal/multiserver"
)

// TestCorruptShardReplyIsAnError: a shard answering the ID frame whose
// count times eight wraps to zero — the four bytes 20 00 00 00 — used to
// reserve 4 GiB and then panic in the front end, where nothing recovers.
// It must be one failed shard with a typed error.
func TestCorruptShardReplyIsAnError(t *testing.T) {
	bad, err := multiserver.Serve("127.0.0.1:0", multiserver.ServeOpts{}, func([]byte) ([]byte, error) {
		return []byte{0x20, 0, 0, 0}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	good, err := multiserver.NewIndexServer("127.0.0.1:0", multiserver.ServeOpts{}, plainBackend{})
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	adSrv, err := multiserver.NewAdServer("127.0.0.1:0", multiserver.ServeOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer adSrv.Close()

	for _, partial := range []bool{false, true} {
		nc, err := DialReplicaShards([][]string{{good.Addr()}, {bad.Addr()}}, adSrv.Addr(), Options{AllowPartial: partial})
		if err != nil {
			t.Fatal(err)
		}
		res, err := nc.QueryResult("any query")
		switch {
		case !partial:
			if !errors.Is(err, multiserver.ErrMalformed) {
				t.Errorf("strict query over a corrupt shard: res %+v, err %v; want ErrMalformed", res, err)
			}
		case err != nil || !res.Degraded || !slices.Equal(res.FailedShards, []int{1}) || !slices.Equal(res.IDs, []uint64{30}):
			t.Errorf("partial query over a corrupt shard: res %+v, err %v; want shard 1 failed and shard 0's answer", res, err)
		}
		nc.Close()
	}
}

// echoBackend answers IDs that are a function of the query and of the
// shard, so an answer that strayed from another query or another shard's
// buffer is recognizable.
type echoBackend struct{ shard uint64 }

func (b echoBackend) MatchIDs(query string) []uint64 {
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

func wantEcho(query string, shards int) []uint64 {
	var want []uint64
	for s := 0; s < shards; s++ {
		want = append(want, echoBackend{uint64(s)}.MatchIDs(query)...)
	}
	slices.Sort(want)
	return want
}

// TestFanOutScratchIsolation: queries running at once share pooled
// scratches, per-socket buffers and — with hedging — attempts that
// outlive their query. Every one of them must still get exactly its own
// merged answer. Run under -race.
func TestFanOutScratchIsolation(t *testing.T) {
	const shards = 3
	var replicas [][]string
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
		replicas = append(replicas, addrs)
	}
	adSrv, err := multiserver.NewAdServer("127.0.0.1:0", multiserver.ServeOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer adSrv.Close()

	for _, hedge := range []time.Duration{0, time.Microsecond} {
		nc, err := DialReplicaShards(replicas, adSrv.Addr(), Options{HedgeAfter: hedge})
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
						t.Errorf("hedge %v, %q: %v", hedge, q, err)
						return
					}
					if want := wantEcho(q, shards); !slices.Equal(res.IDs, want) || len(res.Meta) != len(want) {
						t.Errorf("hedge %v, %q: got %v (%d meta), want %v", hedge, q, res.IDs, len(res.Meta), want)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		nc.Close()
	}
}
