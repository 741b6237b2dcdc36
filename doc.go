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
// BroadMatch, ExactMatch and PhraseMatch are shorthands for the one query
// method, Match, which takes a Query — text, match type, an optional work
// budget, approximate (rewritten) matching, access accounting — and
// returns a Result that says what a budget left out. SelectAds applies the
// secondary auction filters (exclusion keywords, bid floors, ranking).
//
// # Workload adaptation
//
// The index can observe its query stream (Observe) and periodically
// re-optimize the physical layout (Optimize): ads are re-mapped onto data
// nodes keyed by subsets of their word sets so that co-accessed nodes merge
// — the minimum-expected-latency layout is a weighted set cover, solved
// greedily under a random-vs-sequential memory cost model. Re-mapping
// never changes query results.
//
// # Compression
//
// Snapshot converts the index into an immutable compressed form: data
// nodes are front-coded and the hash table is replaced by two succinct
// rank/select bit arrays (B^sig and B^off).
package adindex
