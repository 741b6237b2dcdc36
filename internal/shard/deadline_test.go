package shard

import (
	"errors"
	"slices"
	"testing"
	"time"

	"adindex/internal/corpus"
	"adindex/internal/multiserver"
)

// flaggedBackend is a budget-aware fake: every query answers two records
// with the truncated flag set, so the test can watch the flag propagate
// through the fan-out and merge.
var flaggedBackend = multiserver.BackendFunc(func(dst []byte, _ multiserver.Request) ([]byte, error) {
	return multiserver.AppendAdRecords(dst, []corpus.Ad{{ID: 10}, {ID: 20}}, multiserver.IDFlagTruncated), nil
})

// plainBackend answers without flags.
var plainBackend = multiserver.BackendFunc(func(dst []byte, _ multiserver.Request) ([]byte, error) {
	return multiserver.AppendAdRecords(dst, []corpus.Ad{{ID: 30}}, 0), nil
})

// TestNetClientDeadlinePropagation: an expired deadline fails the whole
// query with ErrDeadlineExpired (even under AllowPartial), a live
// deadline succeeds, and a truncated flag from any one shard marks the
// merged result.
func TestNetClientDeadlinePropagation(t *testing.T) {
	srv0, err := multiserver.NewIndexServer("127.0.0.1:0", multiserver.ServeOpts{}, flaggedBackend)
	if err != nil {
		t.Fatal(err)
	}
	defer srv0.Close()
	srv1, err := multiserver.NewIndexServer("127.0.0.1:0", multiserver.ServeOpts{}, plainBackend)
	if err != nil {
		t.Fatal(err)
	}
	defer srv1.Close()

	nc, err := DialReplicaShards([][]string{{srv0.Addr()}, {srv1.Addr()}}, Options{AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	// Live deadline: both shards answer; the flag from shard 0 survives
	// the merge, and metadata still rides along.
	res, err := nc.QueryResultDeadline("some query", time.Now().Add(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 3 {
		t.Fatalf("IDs = %v", res.IDs)
	}
	if !res.Truncated {
		t.Fatal("truncated flag lost in the merge")
	}
	if res.Degraded {
		t.Fatalf("unexpected degradation: %+v", res)
	}

	// Zero deadline behaves like QueryResult: untagged, unflagged path
	// still decodes (tolerant decoder handles the flag byte).
	res, err = nc.QueryResultDeadline("some query", time.Time{})
	if err != nil || len(res.IDs) != 3 {
		t.Fatalf("zero-deadline query: %v, %v", res, err)
	}

	// Expired deadline: typed failure, no partial serving.
	if _, err := nc.QueryResultDeadline("some query", time.Now().Add(-time.Millisecond)); !errors.Is(err, multiserver.ErrDeadlineExpired) {
		t.Fatalf("expired deadline returned %v, want ErrDeadlineExpired", err)
	}
}

// TestNetClientReadsCutoffAsTruncated: a backend of an older version
// flags a long query it cut to its 12 rarest words with IDFlagCutoff
// alone. Its records are a verified subset of the full answer, as a
// truncated one's are, so the front end decodes the frame and reports
// the merged result as truncated.
func TestNetClientReadsCutoffAsTruncated(t *testing.T) {
	older := multiserver.BackendFunc(func(dst []byte, _ multiserver.Request) ([]byte, error) {
		return multiserver.AppendAdRecords(dst, []corpus.Ad{{ID: 10, Meta: corpus.Meta{BidMicros: 5}}}, multiserver.IDFlagCutoff), nil
	})
	srv0, err := multiserver.NewIndexServer("127.0.0.1:0", multiserver.ServeOpts{}, older)
	if err != nil {
		t.Fatal(err)
	}
	defer srv0.Close()
	srv1, err := multiserver.NewIndexServer("127.0.0.1:0", multiserver.ServeOpts{}, plainBackend)
	if err != nil {
		t.Fatal(err)
	}
	defer srv1.Close()
	nc, err := DialReplicaShards([][]string{{srv0.Addr()}, {srv1.Addr()}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	res, err := nc.QueryResult("a long query")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.IDs, []uint64{10, 30}) || len(res.Meta) != 2 || res.Meta[0].BidMicros != 5 {
		t.Fatalf("IDs %v, meta %v; want [10 30] with ad 10's bid", res.IDs, res.Meta)
	}
	if !res.Truncated || res.Degraded {
		t.Fatalf("a cutoff-flagged shard answer gave Truncated=%v Degraded=%v; want truncated alone", res.Truncated, res.Degraded)
	}
}
