// Sharded: partition a large catalog across several shard indexes and
// send every query to all of them — the paper's Section VII-B deployment
// for corpora too large for one machine. Every shard sits behind a TCP
// index server, and the cluster is read the two ways a deployment reaches
// it: the two-hop client of the paper's setup on the static address list
// (a frozen route: IDs from the shards, metadata from an ad server), and
// a client on the cluster's own route (each shard answers with its
// records, one round trip per shard). A live split then moves half of a
// shard's slots onto a new one while the routed client keeps answering.
//
// Run with:
//
//	go run ./examples/sharded -ads 200000 -shards 4
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"adindex"
	"adindex/internal/multiserver"
	"adindex/internal/shard"
)

func main() {
	numAds := flag.Int("ads", 200000, "catalog size")
	numShards := flag.Int("shards", 4, "shard count")
	flag.Parse()

	ads := adindex.GenerateAds(*numAds, 11)
	single := adindex.Build(ads, adindex.Options{})
	cluster, err := shard.NewElastic(ads, *numShards, shard.ElasticOptions{MaxShards: *numShards + 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d ads across %d shards (%d total indexed)\n",
		*numAds, cluster.NumShards(), cluster.NumAds())

	serving, err := cluster.Serve()
	if err != nil {
		log.Fatal(err)
	}
	defer serving.Close()
	addrs := serving.Addrs()
	adSrv, err := multiserver.NewAdServer("127.0.0.1:0", multiserver.ServeOpts{}, ads)
	if err != nil {
		log.Fatal(err)
	}
	defer adSrv.Close()
	replicas := make([][]string, *numShards)
	for i := range replicas {
		replicas[i] = []string{addrs[i]}
	}
	twoHop, err := shard.DialReplicaShards(replicas, adSrv.Addr(), shard.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer twoHop.Close()
	routed, err := shard.DialRoute(func() (*shard.Route, error) { return cluster.RouteOver(addrs), nil }, "", shard.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer routed.Close()

	// Queries derived from the catalog itself.
	queries := make([]string, 0, 2000)
	for i := 0; i < 2000; i++ {
		queries = append(queries, ads[(i*37)%len(ads)].Phrase+" online sale")
	}
	query := func(nc *shard.NetClient) func(string) int {
		return func(q string) int {
			res, err := nc.QueryResult(q)
			if err != nil {
				log.Fatal(err)
			}
			return len(res.IDs)
		}
	}
	run := func(name string, match func(string) int) {
		start := time.Now()
		matches := 0
		for _, q := range queries {
			matches += match(q)
		}
		elapsed := time.Since(start)
		fmt.Printf("%-14s %8.0f queries/s  (%d matches)\n",
			name, float64(len(queries))/elapsed.Seconds(), matches)
	}
	run("single index", func(q string) int { return len(single.BroadMatch(q)) })
	run("two-hop", query(twoHop))
	run("records route", query(routed))

	// Equivalence spot check: both clients answer what one index answers.
	verify := func(label string, clients ...*shard.NetClient) {
		for _, q := range queries[:200] {
			want := len(single.BroadMatch(q))
			for _, nc := range clients {
				if got := query(nc)(q); got != want {
					log.Fatalf("%s: shard divergence on %q: %d vs %d", label, q, got, want)
				}
			}
		}
	}
	verify("before the split", twoHop, routed)
	fmt.Println("sharded results verified identical to the single index")

	// A live split: the routed client refreshes its route at the new epoch
	// and keeps answering what one index answers.
	to, err := cluster.Split(0)
	if err != nil {
		log.Fatal(err)
	}
	verify("after the split", routed)
	fmt.Printf("split shard 0 onto shard %d: %d shards at epoch %d, results still identical\n",
		to, cluster.NumShards(), routed.Epoch())
}
