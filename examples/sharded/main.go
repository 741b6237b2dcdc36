// Sharded: partition a large catalog across several shard indexes and
// send every query to all of them — the paper's Section VII-B deployment
// for corpora too large for one machine. The cluster is queried first
// in-process, then the way a deployment reaches it: each shard behind a
// TCP index server, one fan-out client dialed on the static address list
// (a frozen route: the shard set never changes, so the client never
// refreshes it).
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
	cluster, err := adindex.NewSharded(ads, *numShards, adindex.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d ads across %d shards (%d total indexed)\n",
		*numAds, cluster.NumShards(), cluster.NumAds())

	// Queries derived from the catalog itself.
	queries := make([]string, 0, 2000)
	for i := 0; i < 2000; i++ {
		queries = append(queries, ads[(i*37)%len(ads)].Phrase+" online sale")
	}

	run := func(name string, match func(string) []adindex.Ad) {
		start := time.Now()
		matches := 0
		for _, q := range queries {
			matches += len(match(q))
		}
		elapsed := time.Since(start)
		fmt.Printf("%-14s %8.0f queries/s  (%d matches)\n",
			name, float64(len(queries))/elapsed.Seconds(), matches)
	}
	run("single index", single.BroadMatch)
	run("sharded", cluster.BroadMatch)

	// Equivalence spot check.
	for _, q := range queries[:200] {
		a, b := single.BroadMatch(q), cluster.BroadMatch(q)
		if len(a) != len(b) {
			log.Fatalf("shard divergence on %q: %d vs %d", q, len(a), len(b))
		}
	}
	fmt.Println("sharded results verified identical to the single index")

	// The same cluster over the wire: one replica per shard, plus the
	// ad-metadata server every §VII-B front end needs.
	addrs, closeShards, err := cluster.ServeShards()
	if err != nil {
		log.Fatal(err)
	}
	defer closeShards()
	adSrv, err := multiserver.NewAdServer("127.0.0.1:0", multiserver.ServeOpts{}, ads)
	if err != nil {
		log.Fatal(err)
	}
	defer adSrv.Close()
	replicas := make([][]string, len(addrs))
	for i, a := range addrs {
		replicas[i] = []string{a}
	}
	client, err := shard.DialReplicaShards(replicas, adSrv.Addr(), shard.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	for _, q := range queries[:200] {
		ids, err := client.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		if want := single.BroadMatch(q); len(ids) != len(want) {
			log.Fatalf("wire divergence on %q: %d vs %d", q, len(ids), len(want))
		}
	}
	fmt.Printf("and over TCP: %d shard servers behind one client on a frozen route (epoch %d)\n",
		client.NumShards(), client.Epoch())
}
