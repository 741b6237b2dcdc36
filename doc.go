// Package adindex is a main-memory index for sponsored-search ad
// retrieval, implementing the data structure of König, Church, and Markov,
// "A Data Structure for Sponsored Search" (ICDE 2009).
//
// # Broad match
//
// Sponsored search reverses the containment direction of classical
// document retrieval: an advertisement with bid phrase P *broad-matches* a
// query Q iff every word of P occurs in Q (words(P) ⊆ Q). Inverted files
// are built for the opposite direction and degrade badly on corpus-frequent
// keywords; this package instead hashes entire word sets into variable-
// length data nodes and answers a query by probing the subsets of its word
// set.
//
// # Basic usage
//
//	ix := adindex.Build([]adindex.Ad{
//		adindex.NewAd(1, "used books", adindex.Meta{BidMicros: 250000}),
//		adindex.NewAd(2, "comic books", adindex.Meta{BidMicros: 310000}),
//	}, adindex.Options{})
//	matches := ix.BroadMatch("cheap used books") // -> ad 1
//
// BroadMatch is the shorthand for a plain broad query of the one query
// method, Match, which takes a Query — text, match type (Broad, Exact or
// Phrase), an optional work budget, approximate (rewritten) matching,
// access accounting — and returns a Result that says what a budget left
// out. SelectAds applies the secondary auction filters (exclusion
// keywords, bid floors, ranking). Load builds the index straight from a
// corpus file (the format WriteAds writes), parsed a block at a time into
// the loader's columns, without a []Ad of the corpus.
//
// # Workload adaptation
//
// The index samples the queries it answers (every Match records the
// query's word set) and can periodically re-optimize the physical layout
// for them (Optimize): ads are re-mapped onto data nodes keyed by subsets
// of their word sets so that co-accessed nodes merge — the
// minimum-expected-latency layout is a weighted set cover, solved
// greedily under a random-vs-sequential memory cost model. Re-mapping
// never changes query results. StartAdapt runs the same planner on a timer
// and installs its layout only when it lowers modeled cost.
//
// # Serving
//
// cmd/adserve serves an Index over HTTP. Split across servers, every shard
// answers a query with its matches' records — ID, bid, click rate — as its
// index holds them, writes included, so a front end over a static shard
// list (adserve -shards over adserve -tcp-index backends) or over a live
// cluster (adserve -elastic) reaches each shard in one round trip.
package adindex
