package main

import (
	"log"
	"time"

	"adindex/internal/core"
	"adindex/internal/multiserver"
	"adindex/internal/server"
	"adindex/internal/shard"
)

// shardOptions maps the remote-mode flags onto the fan-out client's
// options.
func shardOptions(f *flags) shard.Options {
	return shard.Options{
		Conn: multiserver.ConnOpts{
			Timeout:          f.netTimeout,
			MaxRetries:       f.netRetries,
			RetryBase:        f.retryBase,
			BreakerThreshold: f.breakerThreshold,
			BreakerCooldown:  f.breakerCooldown,
		},
		AllowPartial:  f.allowPartial,
		MinLiveShards: f.minLiveShards,
		HedgeAfter:    f.hedgeAfter,
	}
}

// runShards is the -shards main loop: a fault-tolerant front end over a
// static list of index backends (each one an adserve -tcp-index, or any
// frame-protocol index server) and an ad-metadata server.
func runShards(f *flags, cfg server.Config) {
	nc, err := shard.DialReplicaShards(parseShards(f.shards), f.adServer, shardOptions(f))
	if err != nil {
		log.Fatal(err)
	}
	defer nc.Close()
	log.Printf("front-end over %d shards (ad server %s, partial=%v, hedge=%v)",
		nc.NumShards(), f.adServer, f.allowPartial, f.hedgeAfter)
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
// cluster's live route feeding the HTTP front-end. The shards hold the
// ads and answer with records, so a query is one round trip per shard and
// the front end uses no ad server; -tcp-ad starts one for outside clients
// of the two-hop protocol. Topology changes run live through POST
// /admin/rebalance; /metrics carries the migration status and /readyz
// annotates an in-flight handoff.
func runElastic(f *flags, cfg server.Config) {
	ads := loadCorpus(f.corpus)
	buildStart := time.Now()
	ec, err := shard.NewElastic(ads, f.elastic, shard.ElasticOptions{
		Slots:     f.elasticSlots,
		MaxShards: f.elasticMaxShards,
		Index:     core.Options{MaxWords: f.maxWords},
	})
	if err != nil {
		log.Fatalf("elastic cluster: %v", err)
	}
	log.Printf("index ready: %d ads in %d shards, built in %d ms", len(ads), ec.NumShards(), time.Since(buildStart).Milliseconds())
	es, err := ec.Serve()
	if err != nil {
		log.Fatalf("serving shard positions: %v", err)
	}
	defer es.Close()
	log.Printf("elastic cluster: %d/%d shards, %d slots, TCP positions %v",
		ec.NumShards(), ec.MaxShards(), len(ec.Table().Owners), es.Addrs())

	if f.tcpAd != "" {
		adSrv, err := multiserver.NewAdServer(f.tcpAd, multiserver.ServeOpts{}, ads)
		if err != nil {
			log.Fatalf("tcp ad server: %v", err)
		}
		defer adSrv.Close()
		log.Printf("serving TCP ad-metadata protocol on %s", adSrv.Addr())
	}

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
