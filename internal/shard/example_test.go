package shard_test

import (
	"fmt"

	"adindex/internal/corpus"
	"adindex/internal/shard"
)

// A cluster is read over the wire: Serve puts every shard position behind
// a TCP index server, and a client on the cluster's route fans each query
// out to them, one round trip per shard with the records in the reply.
func ExampleNewElastic() {
	ads := corpus.Generate(corpus.GenOptions{NumAds: 10000, Seed: 1}).Ads
	cluster, err := shard.NewElastic(ads, 4, shard.ElasticOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println(cluster.NumShards(), "shards,", cluster.NumAds(), "ads")

	serving, err := cluster.Serve()
	if err != nil {
		panic(err)
	}
	defer serving.Close()
	client, err := shard.DialRoute(func() (*shard.Route, error) { return cluster.RouteOver(serving.Addrs()), nil }, "", shard.Options{})
	if err != nil {
		panic(err)
	}
	defer client.Close()

	res, err := client.QueryResult(ads[0].Phrase)
	if err != nil {
		panic(err)
	}
	for i, id := range res.IDs {
		if id == ads[0].ID {
			fmt.Println("found ad", id, "bidding", res.Meta[i].BidMicros == ads[0].Meta.BidMicros)
		}
	}
	// Output:
	// 4 shards, 10000 ads
	// found ad 1 bidding true
}
