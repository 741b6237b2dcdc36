package shard

import (
	"errors"
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
