// Package shard partitions an advertisement corpus across several
// broad-match indexes and fans queries out to all of them. Section VII-B
// motivates this deployment: "In scenarios where the size of the ad corpus
// or the index itself is too large to fit into the main memory of a single
// machine, it becomes necessary to split the data across servers."
//
// Because broad match gives no way to route a query to a subset of shards
// (any shard may hold matching ads), every query visits every shard; the
// win is capacity and parallelism, not per-query work. Ads are routed to
// shards by word-set hash so that all ads sharing a word set — and
// therefore any future re-mapping groups — stay co-located (mapping
// condition IV holds per shard).
//
// There is one cluster type, ElasticCluster, and one fan-out client,
// NetClient. A static deployment is the same pair standing still: a
// cluster that is never rebalanced, reached through a frozen (epoch 0)
// route.
package shard

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"adindex/internal/core"
	"adindex/internal/corpus"
	"adindex/internal/costmodel"
	"adindex/internal/durable"
	"adindex/internal/multiserver"
	"adindex/internal/textnorm"
)

// ElasticCluster is a sharded broad-match index whose shard count and
// slot ownership change while queries keep flowing. Rebalancing — a
// split onto a fresh shard, a merge of one shard into another, or a
// migration of slots between existing shards — is a live handoff:
//
//  1. begin: a dual-write journal opens for the moving slots (and, when
//     the target already exists, the target's own slots), and the
//     source's contents plus the target's current base are copied —
//     unsorted, memcpy-scale — in the same critical section, so
//     snapshot + journal tile the mutation stream exactly.
//  2. stream: the captured state crosses as a sequence of checksummed
//     snapshot segments (internal/durable's snapshot file format
//     byte-for-byte).
//  3. load: the segments land in a PRIVATE staging index built over the
//     captured base — no cluster lock is held, so the bulk load never
//     contends with queries.
//  4. catch-up: journal frames (the durable WAL wire format) replay onto
//     the staging index in bounded rounds; an unbounded window aborts.
//  5. cutover: one short critical section replays the final journal
//     tail, swaps the staging index in as the target (a pointer
//     assignment), and publishes the successor routing table (epoch+1).
//  6. drain: the source lazily deletes the moved ads in batches.
//
// Queries are correct in every phase because staged copies live outside
// the serving path entirely until the cutover swap, and match results
// are filtered by slot ownership under the table the query runs
// against: before cutover the moving ads are visible only on the
// source, after cutover only on the target, even while both hold
// physical copies. A failure in any phase aborts: the journal closes,
// the staging index is discarded untouched by serving state, and the
// deployment stays on the last stable epoch.
type ElasticCluster struct {
	opts ElasticOptions

	// mu guards the routing table pointer, the shard slice, migration
	// state, and phase; queries hold it shared, mutations and rebalance
	// critical sections exclusive.
	mu     sync.RWMutex
	table  *RoutingTable
	shards []*core.Index
	mig    *migration
	phase  string

	// admin serializes rebalance operations end to end.
	admin sync.Mutex

	loads     []*atomic.Uint64 // matches served per shard (placement signal)
	completed atomic.Uint64
	aborted   atomic.Uint64

	lastErrMu sync.Mutex
	lastErr   string

	// handoffFault, when set, is invoked at each handoff phase; a
	// non-nil return aborts the migration there. At the "stream" phase
	// the raw snapshot stream is passed and may be corrupted in place
	// (exercising the checksum path). Test seam.
	handoffFault func(phase string, stream []byte) error
}

// migration is the in-flight handoff state.
type migration struct {
	kind  string // "split", "merge", "migrate"
	slots map[int]bool
	from  int
	to    int
	fresh bool // target shard was created by this handoff

	// delta is the dual-write journal: WAL frames for every mutation
	// since capture that touched a moving slot or (for a handoff onto an
	// existing shard) one of the target's own slots — the staging index
	// replaces the whole target at cutover, so it must also absorb the
	// target's concurrent native mutations.
	delta        []byte
	deltaRecords int
	totalRecords int
}

// ElasticOptions tunes an ElasticCluster. Zero values select defaults.
type ElasticOptions struct {
	// Slots is the slot-universe size (default DefaultSlots).
	Slots int
	// MaxShards caps shard positions; splits beyond it fail (default 8).
	// Serving layers provision one server per position up front, so
	// growth never races a client against a listener that isn't up yet.
	MaxShards int
	// MaxDeltaRecords aborts a handoff whose dual-write window exceeds
	// this many journaled mutations (default 4096).
	MaxDeltaRecords int
	// Index configures each shard index.
	Index core.Options
}

func (o ElasticOptions) withDefaults() ElasticOptions {
	if o.Slots == 0 {
		o.Slots = DefaultSlots
	}
	if o.MaxShards == 0 {
		o.MaxShards = 8
	}
	if o.MaxDeltaRecords == 0 {
		o.MaxDeltaRecords = 4096
	}
	return o
}

// Handoff pacing. A live handoff trades its own duration for query tail
// latency, and TestReshardTailLatency holds the trade to p99(during) <=
// 2x p99(before) through a split, a migration and a merge of a 20k-ad
// cluster under closed-loop load. Tiny work chunks with long parks keep
// the handoff near 2 % of one core: the test sees ~1.3x with these
// values (seconds per handoff) and 5-7x with 64-ad chunks parked 50µs
// (a tenth of a second per handoff).
const (
	// handoffBatch is how many ads a handoff copies, stages, or drains
	// per uninterrupted work chunk: the longest it can hold a core that
	// a query is waiting for.
	handoffBatch = 8
	// handoffPace is how long the handoff goroutine parks between work
	// chunks (the effective floor is the host's timer granularity).
	handoffPace = 700 * time.Microsecond
	// streamSegment is how many captured ads each checksummed snapshot
	// segment carries: it bounds the encode/decode CPU chunks the same
	// way handoffBatch bounds the insert chunks.
	streamSegment = 128
	// maxCatchUpRounds bounds journal replay rounds before the final
	// locked round.
	maxCatchUpRounds = 3
)

// pace parks the handoff goroutine between work chunks so serving
// traffic is never starved; live migration trades its own duration for
// query tail latency. A bare runtime.Gosched is NOT sufficient here: on
// GOMAXPROCS=1 the yielded goroutine lands back on the run queue, and
// the scheduler only consults the netpoller once the run queues are
// empty — a compute loop that merely yields therefore starves every
// in-flight network exchange until sysmon's fallback poll (~10ms).
// Parking on a timer empties the run queue, so the scheduler delivers
// network readiness to the serving goroutines every pause.
func pace() { time.Sleep(handoffPace) }

// NewElastic partitions ads across numShards shards under a fresh
// epoch-1 routing table.
func NewElastic(ads []corpus.Ad, numShards int, opts ElasticOptions) (*ElasticCluster, error) {
	opts = opts.withDefaults()
	if numShards > opts.MaxShards {
		return nil, fmt.Errorf("shard: %d initial shards exceed MaxShards %d", numShards, opts.MaxShards)
	}
	table, err := NewRoutingTable(numShards, opts.Slots)
	if err != nil {
		return nil, err
	}
	parts := make([][]corpus.Ad, numShards)
	for i := range ads {
		o := table.OwnerOf(ads[i].Words)
		parts[o] = append(parts[o], ads[i])
	}
	// The shards share nothing; they are built side by side.
	ec := &ElasticCluster{opts: opts, table: table, shards: make([]*core.Index, numShards)}
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ec.shards[i] = core.New(parts[i], opts.Index)
		}()
		ec.loads = append(ec.loads, &atomic.Uint64{})
	}
	wg.Wait()
	return ec, nil
}

// Epoch returns the current routing epoch.
func (ec *ElasticCluster) Epoch() uint64 {
	ec.mu.RLock()
	defer ec.mu.RUnlock()
	return ec.table.Epoch
}

// Table returns the current routing table (immutable; do not modify).
func (ec *ElasticCluster) Table() *RoutingTable {
	ec.mu.RLock()
	defer ec.mu.RUnlock()
	return ec.table
}

// NumShards returns the number of shard positions (including retired
// zero-slot shards).
func (ec *ElasticCluster) NumShards() int {
	ec.mu.RLock()
	defer ec.mu.RUnlock()
	return len(ec.shards)
}

// MaxShards returns the shard-position cap.
func (ec *ElasticCluster) MaxShards() int { return ec.opts.MaxShards }

// NumAds returns the logical ad count: physical copies staged or not yet
// drained by a handoff are not counted twice.
func (ec *ElasticCluster) NumAds() int {
	ec.mu.RLock()
	defer ec.mu.RUnlock()
	n := 0
	for id, ix := range ec.shards {
		for _, ad := range ix.Ads() {
			if ec.table.OwnerOf(ad.Words) == id {
				n++
			}
		}
	}
	return n
}

// Insert routes the ad to its slot's owner; if that slot is mid-handoff
// the mutation is also journaled for catch-up replay on the target.
func (ec *ElasticCluster) Insert(ad corpus.Ad) {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	slot := ec.table.SlotOfWords(ad.Words)
	ec.shards[ec.table.Owners[slot]].Insert(ad)
	if ec.mig != nil && (ec.mig.slots[slot] || ec.table.Owners[slot] == ec.mig.to) {
		rec := durable.Record{Op: durable.OpInsert, Ad: ad}
		ec.mig.delta = durable.AppendRecordFrame(ec.mig.delta, &rec)
		ec.mig.deltaRecords++
		ec.mig.totalRecords++
	}
}

// Delete removes one copy of (id, phrase) from its slot's owner,
// journaling the delete when the slot is mid-handoff.
func (ec *ElasticCluster) Delete(id uint64, phrase string) bool {
	words := textnorm.WordSet(phrase)
	if len(words) == 0 {
		return false
	}
	ec.mu.Lock()
	defer ec.mu.Unlock()
	slot := ec.table.SlotOfWords(words)
	found := ec.shards[ec.table.Owners[slot]].Delete(id, phrase)
	if ec.mig != nil && (ec.mig.slots[slot] || ec.table.Owners[slot] == ec.mig.to) {
		rec := durable.Record{Op: durable.OpDelete, ID: id, Phrase: phrase}
		ec.mig.delta = durable.AppendRecordFrame(ec.mig.delta, &rec)
		ec.mig.deltaRecords++
		ec.mig.totalRecords++
	}
	return found
}

// ownedMatchesLocked runs one query against shard position id, bounded by
// deadline when that is non-zero, with the ownership filter applied, under
// the caller's read lock. The matches live in sc and reference the shard's
// records: the caller consumes them before it releases either the scratch
// or the lock.
func (ec *ElasticCluster) ownedMatchesLocked(sc *multiserver.MatchScratch, id int, query string, counters *costmodel.Counters, deadline time.Time) []*corpus.Ad {
	if id < 0 || id >= len(ec.shards) {
		return nil
	}
	matches := sc.BroadMatch(ec.shards[id], query, counters, deadline)
	owned := matches[:0]
	for _, m := range matches {
		// Ownership filter: a physical copy answers only from the shard
		// that owns its slot under the table this query runs against.
		if ec.table.OwnerOf(m.Words) == id {
			owned = append(owned, m)
		}
	}
	if len(owned) > 0 {
		ec.loads[id].Add(uint64(len(owned)))
	}
	return owned
}

// Match runs the query on every active shard in turn and hands the owned
// matches, ID-ordered (duplicates preserved), to visit. The matches
// reference shard records, so visit runs under the cluster's read lock
// and must copy out what it keeps. counters, when non-nil, accumulates
// every shard's access accounting, the query counted once.
func (ec *ElasticCluster) Match(query string, counters *costmodel.Counters, visit func(matches []*corpus.Ad)) {
	ec.mu.RLock()
	defer ec.mu.RUnlock()
	sc := multiserver.GetMatchScratch()
	defer sc.Release()
	var queries int64
	if counters != nil {
		queries = counters.Queries + 1
	}
	var all []*corpus.Ad
	for _, id := range ec.table.ActiveShards() {
		all = append(all, ec.ownedMatchesLocked(sc, id, query, counters, time.Time{})...)
	}
	if counters != nil {
		counters.Queries = queries
	}
	slices.SortStableFunc(all, func(a, b *corpus.Ad) int { return cmp.Compare(a.ID, b.ID) })
	visit(all)
}

// MatchIDs is Match keeping the IDs only.
func (ec *ElasticCluster) MatchIDs(query string) []uint64 {
	var out []uint64
	ec.Match(query, nil, func(matches []*corpus.Ad) {
		for _, m := range matches {
			out = append(out, m.ID)
		}
	})
	return out
}

// shardBackend serves one shard position over the frame protocol with
// the epoch check and the match performed atomically under the cluster
// read lock.
type shardBackend struct {
	ec *ElasticCluster
	id int
}

// AppendMatch implements multiserver.Backend: a tagged request is held to
// the cluster's routing epoch, the enumeration to the request's deadline,
// and the owned matches go from the shard's records into the response frame
// — their IDs, or for a records request IDs and metadata, read under the
// lock the match ran under — flagged with what the deadline or the
// MaxQueryWords cutoff left out.
func (b shardBackend) AppendMatch(dst []byte, req multiserver.Request) ([]byte, error) {
	b.ec.mu.RLock()
	defer b.ec.mu.RUnlock()
	if req.Tagged && req.Epoch != b.ec.table.Epoch {
		return nil, &multiserver.StaleEpochError{ClientEpoch: req.Epoch, ServerEpoch: b.ec.table.Epoch}
	}
	sc := multiserver.GetMatchScratch()
	defer sc.Release()
	return sc.AppendReply(dst, req, b.ec.ownedMatchesLocked(sc, b.id, req.Query, nil, req.Deadline)), nil
}

// ElasticServing is a set of TCP index servers fronting an
// ElasticCluster, one per shard position up to MaxShards. Positions are
// provisioned eagerly so a split never races clients against a listener
// that is not up yet: a not-yet-active position answers (correctly)
// with zero matches until a rebalance gives it slots.
type ElasticServing struct {
	servers []*multiserver.Server
	addrs   []string
}

// Serve starts one index server per shard position (up to MaxShards) on
// ephemeral loopback ports. Epoch-tagged requests are answered only under
// a matching routing epoch — otherwise the client gets a typed
// *StaleEpochError frame telling it to refresh its routing table and
// retry; untagged requests are served unchecked, so legacy clients keep
// working (at the cost of missing post-cutover rebalances).
func (ec *ElasticCluster) Serve() (*ElasticServing, error) {
	es := &ElasticServing{}
	for id := 0; id < ec.opts.MaxShards; id++ {
		srv, err := multiserver.NewIndexServer("127.0.0.1:0", multiserver.ServeOpts{}, shardBackend{ec: ec, id: id})
		if err != nil {
			es.Close()
			return nil, err
		}
		es.servers = append(es.servers, srv)
		es.addrs = append(es.addrs, srv.Addr())
	}
	return es, nil
}

// Addrs returns the per-position listen addresses.
func (es *ElasticServing) Addrs() []string { return append([]string(nil), es.addrs...) }

// RouteOver pairs the current routing table with per-position replica
// addresses: each argument is one replica's full position->address
// list (ElasticServing.Addrs() of one replica of this deployment).
// Because positions are provisioned up to MaxShards eagerly, the
// address lists are static across rebalances — only the table moves.
// The shards hold the ads, so the route declares Records.
func (ec *ElasticCluster) RouteOver(replicaAddrs ...[]string) *Route {
	t := ec.Table()
	reps := make([][]string, t.NumShards)
	for id := 0; id < t.NumShards; id++ {
		for _, addrs := range replicaAddrs {
			if id < len(addrs) {
				reps[id] = append(reps[id], addrs[id])
			}
		}
	}
	return &Route{Table: *t, Replicas: reps, Records: true}
}

// Close stops all shard servers.
func (es *ElasticServing) Close() {
	for _, srv := range es.servers {
		srv.Close()
	}
}

// Split moves the upper half of shard's slots onto a fresh shard and
// returns the new shard id.
func (ec *ElasticCluster) Split(shard int) (int, error) {
	ec.admin.Lock()
	defer ec.admin.Unlock()
	ec.mu.RLock()
	slots := ec.table.SplitSlots(shard)
	to := len(ec.shards)
	ec.mu.RUnlock()
	if slots == nil {
		return -1, fmt.Errorf("shard: shard %d owns fewer than 2 slots, cannot split", shard)
	}
	if err := ec.moveSlots("split", slots, shard, to); err != nil {
		return -1, err
	}
	return to, nil
}

// Merge moves every slot of shard `from` onto existing shard `to`,
// retiring `from` (it keeps its position but owns nothing).
func (ec *ElasticCluster) Merge(from, to int) error {
	ec.admin.Lock()
	defer ec.admin.Unlock()
	ec.mu.RLock()
	slots := ec.table.SlotsOf(from)
	active := ec.table.SlotsOf(to)
	ec.mu.RUnlock()
	if len(slots) == 0 {
		return fmt.Errorf("shard: merge source %d owns no slots", from)
	}
	if len(active) == 0 {
		return fmt.Errorf("shard: merge target %d owns no slots", to)
	}
	return ec.moveSlots("merge", slots, from, to)
}

// Migrate moves the upper half of shard `from`'s slots onto existing
// active shard `to` — targeted load shedding between live shards.
func (ec *ElasticCluster) Migrate(from, to int) error {
	ec.admin.Lock()
	defer ec.admin.Unlock()
	ec.mu.RLock()
	slots := ec.table.SplitSlots(from)
	active := ec.table.SlotsOf(to)
	ec.mu.RUnlock()
	if slots == nil {
		return fmt.Errorf("shard: migration source %d owns fewer than 2 slots", from)
	}
	if len(active) == 0 {
		return fmt.Errorf("shard: migration target %d owns no slots", to)
	}
	return ec.moveSlots("migrate", slots, from, to)
}

// moveSlots is the shared live-handoff state machine. Callers hold
// ec.admin.
func (ec *ElasticCluster) moveSlots(kind string, slots []int, from, to int) (err error) {
	moving := make(map[int]bool, len(slots))
	for _, s := range slots {
		moving[s] = true
	}

	// Phase: begin. Validate, provision the target, open the dual-write
	// journal, and capture the moving state — all in one critical
	// section, so the snapshot and the journal tile the mutation stream
	// with no gap and no overlap.
	ec.mu.Lock()
	if ec.mig != nil {
		ec.mu.Unlock()
		return fmt.Errorf("shard: a handoff is already in flight")
	}
	if from < 0 || from >= len(ec.shards) || from == to {
		ec.mu.Unlock()
		return fmt.Errorf("shard: invalid handoff %d -> %d", from, to)
	}
	if to < 0 || to > len(ec.shards) || to >= ec.opts.MaxShards+1 {
		ec.mu.Unlock()
		return fmt.Errorf("shard: invalid handoff target %d", to)
	}
	fresh := to == len(ec.shards)
	if fresh {
		if to >= ec.opts.MaxShards {
			ec.mu.Unlock()
			return fmt.Errorf("shard: cannot grow past MaxShards=%d", ec.opts.MaxShards)
		}
		ec.shards = append(ec.shards, core.New(nil, ec.opts.Index))
		ec.loads = append(ec.loads, &atomic.Uint64{})
	}
	for _, s := range slots {
		if ec.table.Owners[s] != from {
			// Validate ownership under the same lock that installs the
			// journal, so a stale plan cannot smuggle a foreign slot in.
			if fresh {
				ec.shards = ec.shards[:to]
				ec.loads = ec.loads[:to]
			}
			ec.mu.Unlock()
			return fmt.Errorf("shard: slot %d is owned by %d, not handoff source %d", s, ec.table.Owners[s], from)
		}
	}
	ec.mig = &migration{kind: kind, slots: moving, from: from, to: to, fresh: fresh}
	srcEpoch := ec.table.Epoch
	srcTable := ec.table
	// Copy the source's contents — unsorted, so the critical section
	// holds only a memcpy-scale cost, not a sort — under the same lock
	// that opens the journal: capture + journal tile the mutation stream
	// exactly, with no overlap (journal replay appends, so a record
	// also reflected in the capture would double). An existing target is
	// replaced wholesale by the staging index at cutover, so its current
	// contents are captured here too, tiling its native mutation stream
	// the same way. The moving-slot filter runs outside the lock because
	// an ad's slot is a pure function of its words.
	capture := ec.shards[from].AppendAds(nil)
	var base []corpus.Ad
	if !fresh {
		base = ec.shards[to].AppendAds(nil)
	}
	ec.phase = "stream"
	ec.mu.Unlock()

	// Index work parks every batch ads; the slot filters, an order of
	// magnitude cheaper per ad, every chunk. Both run outside the lock.
	const batch, chunk = handoffBatch, 16 * handoffBatch
	keep := capture[:0]
	for i, ad := range capture {
		if moving[srcTable.SlotOfWords(ad.Words)] {
			keep = append(keep, ad)
		}
		if (i+1)%chunk == 0 {
			pace()
		}
	}
	capture = keep

	defer func() {
		if err != nil {
			ec.abort(err)
		}
	}()

	if err := ec.faultAt("begin", nil); err != nil {
		return err
	}

	// Phase: stream. The captured state crosses as a sequence of
	// checksummed snapshot segments; corruption in any segment is
	// detected at decode and aborts. Segmenting keeps each encode and
	// decode CPU chunk short, so a lone serving core is never
	// monopolized for a full snapshot's length.
	var segs [][]byte
	for i := 0; i == 0 || i < len(capture); i += streamSegment {
		end := i + streamSegment
		if end > len(capture) {
			end = len(capture)
		}
		segs = append(segs, durable.EncodeSnapshotStream(srcEpoch, capture[i:end], nil, srcEpoch))
		pace()
	}
	if err := ec.faultAt("stream", segs[0]); err != nil {
		return err
	}

	// Phase: load. Staged copies land in a PRIVATE staging index — the
	// live target and the cluster lock are untouched, so queries never
	// contend with the bulk load (a lock-held batch loop here starved
	// readers for the whole handoff under sustained fan-out traffic).
	// The staging index starts from the existing target's captured base
	// and replaces it wholesale at cutover. Inserts pause every
	// handoffBatch: on small GOMAXPROCS an unbroken bulk build
	// monopolizes CPU and stalls every in-flight query for its full
	// length.
	ec.setPhase("load")
	staging := core.New(nil, ec.opts.Index)
	loaded := 0
	stage := func(ads []corpus.Ad) {
		for _, ad := range ads {
			staging.Insert(ad)
			if loaded++; loaded%batch == 0 {
				pace()
			}
		}
	}
	stage(base)
	for _, seg := range segs {
		state, derr := durable.DecodeSnapshotStream(seg)
		if derr != nil {
			return fmt.Errorf("shard: handoff snapshot stream rejected: %w", derr)
		}
		stage(state.Ads)
	}
	if err := ec.faultAt("load", nil); err != nil {
		return err
	}

	// Phase: catch-up. Replay journal frames accumulated behind the
	// snapshot in bounded rounds; a window that keeps growing past
	// MaxDeltaRecords aborts rather than chasing forever.
	ec.setPhase("catchup")
	for round := 0; round < maxCatchUpRounds; round++ {
		ec.mu.Lock()
		delta := ec.mig.delta
		ec.mig.delta = nil
		ec.mig.deltaRecords = 0
		total := ec.mig.totalRecords
		ec.mu.Unlock()
		if total > ec.opts.MaxDeltaRecords {
			return fmt.Errorf("shard: handoff dual-write window exceeded %d records", ec.opts.MaxDeltaRecords)
		}
		if len(delta) == 0 {
			break
		}
		recs, rerr := durable.DecodeRecordFrames(delta)
		if rerr != nil {
			return fmt.Errorf("shard: handoff delta stream rejected: %w", rerr)
		}
		applyRecords(staging, recs)
	}
	if err := ec.faultAt("catchup", nil); err != nil {
		return err
	}

	// Phase: cutover. One short critical section: replay the final
	// journal tail into staging, swap staging in as the target, publish
	// the successor table, close the journal. The swap is a pointer
	// assignment, so cutover cost is O(final delta), not O(moved state).
	ec.mu.Lock()
	ec.phase = "cutover"
	if len(ec.mig.delta) > 0 {
		recs, rerr := durable.DecodeRecordFrames(ec.mig.delta)
		if rerr != nil {
			ec.mu.Unlock()
			return fmt.Errorf("shard: handoff final delta rejected: %w", rerr)
		}
		applyRecords(staging, recs)
	}
	next, terr := ec.table.MoveSlots(slots, to)
	if terr != nil {
		ec.mu.Unlock()
		return terr
	}
	ec.shards[to] = staging
	ec.table = next
	ec.mig = nil
	ec.phase = "drain"
	ec.mu.Unlock()

	// Phase: drain. The moved slots now route to the target, so the
	// source's leftover copies are frozen; delete them in short batches.
	// Capture unsorted in one copy under the read lock, as begin does
	// under the write lock (a park in here would hold the lock through
	// it, and a writer queued behind a held read lock stalls every new
	// reader); filter outside it.
	ec.mu.RLock()
	residue := ec.shards[from].AppendAds(nil)
	ec.mu.RUnlock()
	var leftovers []corpus.Ad
	for i, ad := range residue {
		if moving[srcTable.SlotOfWords(ad.Words)] {
			leftovers = append(leftovers, ad)
		}
		if (i+1)%chunk == 0 {
			pace()
		}
	}
	for i := 0; i < len(leftovers); i += batch {
		end := i + batch
		if end > len(leftovers) {
			end = len(leftovers)
		}
		ec.mu.Lock()
		for _, ad := range leftovers[i:end] {
			ec.shards[from].Delete(ad.ID, ad.Phrase)
		}
		ec.mu.Unlock()
		// Park between batches so queued readers drain; back-to-back
		// write acquisitions can otherwise starve them for the whole
		// sweep.
		pace()
	}
	ec.setPhase("")
	ec.completed.Add(1)
	return nil
}

// abort rolls a failed handoff back to the last stable epoch: the
// journal closes, staged copies are discarded (a fresh target shard is
// removed outright; an existing target is rebuilt without the foreign
// slots), and the error is recorded.
func (ec *ElasticCluster) abort(cause error) {
	ec.mu.Lock()
	mig := ec.mig
	ec.mig = nil
	ec.phase = ""
	// Staged copies only ever lived in the private staging index (now
	// dropped with the migration), so the live target needs no rebuild;
	// a fresh handoff just removes its empty placeholder shard.
	if mig != nil && mig.fresh {
		ec.shards = ec.shards[:mig.to]
		ec.loads = ec.loads[:mig.to]
	}
	ec.mu.Unlock()
	ec.aborted.Add(1)
	ec.lastErrMu.Lock()
	ec.lastErr = cause.Error()
	ec.lastErrMu.Unlock()
}

func (ec *ElasticCluster) setPhase(p string) {
	ec.mu.Lock()
	ec.phase = p
	ec.mu.Unlock()
}

// SetRebalanceHook installs fn, invoked at each handoff phase ("begin",
// "stream", "load", "catchup") of subsequent rebalances; at "stream" the
// raw snapshot bytes are passed and may be corrupted in place. A non-nil
// return aborts the handoff at that phase. The hook runs outside the
// cluster locks, so it may mutate and query the cluster — simulation
// harnesses use this to interleave traffic mid-handoff deterministically.
// Pass nil to clear.
func (ec *ElasticCluster) SetRebalanceHook(fn func(phase string, stream []byte) error) {
	ec.mu.Lock()
	ec.handoffFault = fn
	ec.mu.Unlock()
}

func (ec *ElasticCluster) faultAt(phase string, stream []byte) error {
	ec.mu.RLock()
	fn := ec.handoffFault
	ec.mu.RUnlock()
	if fn == nil {
		return nil
	}
	return fn(phase, stream)
}

// applyRecords replays journal records onto the target index, caller
// holding the exclusive lock.
func applyRecords(ix *core.Index, recs []durable.Record) {
	for i := range recs {
		switch recs[i].Op {
		case durable.OpInsert:
			ix.Insert(recs[i].Ad)
		case durable.OpDelete:
			ix.Delete(recs[i].ID, recs[i].Phrase)
		}
	}
}

// ShardLoad is one shard's placement signal.
type ShardLoad struct {
	Shard   int    `json:"shard"`
	Slots   int    `json:"slots"`
	Ads     int    `json:"ads"`
	Matches uint64 `json:"matches_served"`
}

// RebalanceStatus is the migration/placement view surfaced in /metrics.
type RebalanceStatus struct {
	Epoch        uint64      `json:"epoch"`
	NumShards    int         `json:"num_shards"`
	ActiveShards int         `json:"active_shards"`
	Slots        int         `json:"slots"`
	Migrating    bool        `json:"migrating"`
	Phase        string      `json:"phase,omitempty"`
	Kind         string      `json:"kind,omitempty"`
	From         int         `json:"from,omitempty"`
	To           int         `json:"to,omitempty"`
	MovingSlots  int         `json:"moving_slots,omitempty"`
	DeltaRecords int         `json:"delta_records,omitempty"`
	Completed    uint64      `json:"completed"`
	Aborted      uint64      `json:"aborted"`
	LastError    string      `json:"last_error,omitempty"`
	Loads        []ShardLoad `json:"loads"`
}

// Status reports the current rebalance state and per-shard placement
// signals.
func (ec *ElasticCluster) Status() RebalanceStatus {
	ec.mu.RLock()
	st := RebalanceStatus{
		Epoch:        ec.table.Epoch,
		NumShards:    len(ec.shards),
		ActiveShards: len(ec.table.ActiveShards()),
		Slots:        len(ec.table.Owners),
		Phase:        ec.phase,
		Completed:    ec.completed.Load(),
		Aborted:      ec.aborted.Load(),
	}
	if ec.mig != nil {
		st.Migrating = true
		st.Kind = ec.mig.kind
		st.From = ec.mig.from
		st.To = ec.mig.to
		st.MovingSlots = len(ec.mig.slots)
		st.DeltaRecords = ec.mig.deltaRecords
	}
	for id, ix := range ec.shards {
		st.Loads = append(st.Loads, ShardLoad{
			Shard:   id,
			Slots:   len(ec.table.SlotsOf(id)),
			Ads:     ix.NumAds(),
			Matches: ec.loads[id].Load(),
		})
	}
	ec.mu.RUnlock()
	ec.lastErrMu.Lock()
	st.LastError = ec.lastErr
	ec.lastErrMu.Unlock()
	return st
}

// SuggestSplit is the hot-key-aware placement policy: it returns the
// active shard that has served the most matches (ties broken by ad
// count, then lowest id) among shards that can still split, or -1 when
// none can. The signal comes from the per-shard serving counters — the
// elastic deployment's equivalent of the Observe workload sampler.
func (ec *ElasticCluster) SuggestSplit() int {
	ec.mu.RLock()
	defer ec.mu.RUnlock()
	if len(ec.shards) >= ec.opts.MaxShards {
		return -1
	}
	best := -1
	var bestMatches uint64
	bestAds := -1
	for _, id := range ec.table.ActiveShards() {
		if len(ec.table.SlotsOf(id)) < 2 {
			continue
		}
		m, a := ec.loads[id].Load(), ec.shards[id].NumAds()
		if best < 0 || m > bestMatches || (m == bestMatches && a > bestAds) {
			best, bestMatches, bestAds = id, m, a
		}
	}
	return best
}
