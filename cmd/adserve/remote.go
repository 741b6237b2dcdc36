package main

import (
	"log"
	"runtime"
	"time"

	"adindex/internal/server"
	"adindex/internal/shard"
)

// shardOptions maps the remote-mode flags onto the fan-out client's
// options; every connection runs on the multiserver defaults.
func shardOptions(f *flags) shard.Options {
	return shard.Options{AllowPartial: f.allowPartial, HedgeAfter: f.hedgeAfter}
}

// runShards is the -shards main loop: a fault-tolerant front end over a
// static list of index backends (each one an adserve -tcp-index, or any
// frame-protocol index server that answers records), one round trip per
// shard.
func runShards(f *flags, cfg server.Config) {
	nc, err := shard.DialReplicaShards(parseShards(f.shards), shardOptions(f))
	if err != nil {
		log.Fatal(err)
	}
	defer nc.Close()
	log.Printf("front-end over %d shards (partial=%v, hedge=%v)",
		nc.NumShards(), f.allowPartial, f.hedgeAfter)
	// Run binds before serving, so a bad -addr fails here with a non-zero
	// exit instead of a goroutine logging into the void.
	if err := server.NewRemote(nc, cfg).Run(f.addr); err != nil {
		log.Fatal(err)
	}
}

// runElastic is the -elastic main loop. The deployment is a loopback
// version of the distributed topology: an ElasticCluster serving the
// multiserver frame protocol on one port per shard position (up to the
// shard cap, so split targets are pre-provisioned) and a NetClient on the
// cluster's live route feeding the HTTP front-end. The shards are built
// over the one copy of the corpus, read into the loader's columns, which
// is dropped and collected before serving. They hold the ads and answer
// with records, so a query is one round trip per shard. Topology changes
// run live through POST /admin/rebalance; /metrics carries the migration
// status and /readyz annotates an in-flight handoff.
func runElastic(f *flags, cfg server.Config) {
	in := readColumns(f.corpus)
	// Collect the reader's garbage before the build allocates (see
	// adindex.Load).
	runtime.GC()
	buildStart := time.Now()
	ec, err := shard.LoadElastic(in, f.elastic, shard.ElasticOptions{})
	if err != nil {
		log.Fatalf("elastic cluster: %v", err)
	}
	log.Printf("index ready: %d ads in %d shards, built in %d ms", in.Len(), ec.NumShards(), time.Since(buildStart).Milliseconds())
	es, err := ec.Serve()
	if err != nil {
		log.Fatalf("serving shard positions: %v", err)
	}
	defer es.Close()
	log.Printf("elastic cluster: %d/%d shards, %d slots, TCP positions %v",
		ec.NumShards(), ec.MaxShards(), len(ec.Table().Owners), es.Addrs())

	// The shards hold what they keep of the corpus. Drop it and collect the
	// build's garbage once, so serving starts from a heap goal of twice the
	// index, not of the build.
	in = nil
	runtime.GC()

	nc, err := shard.DialRoute(func() (*shard.Route, error) {
		return ec.RouteOver(es.Addrs()), nil
	}, "", shardOptions(f))
	if err != nil {
		log.Fatal(err)
	}
	defer nc.Close()

	srv := server.NewRemote(nc, cfg)
	srv.AttachRebalancer(ec)
	log.Printf("elastic front-end ready (epoch %d); rebalance via POST /admin/rebalance?op=split|migrate|merge", ec.Epoch())
	if err := srv.Run(f.addr); err != nil {
		log.Fatal(err)
	}
}
