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
// route. Every read of a cluster is a request frame answered by one shard
// position's server (Serve); a shard holds exactly the ads of the slots
// it owns, so a position answers from its index as it stands, with each
// match's record: a query is one exchange per shard, on either route. A
// remote client's exchange is a round trip over TCP; the front end of the
// process that serves the positions (ElasticServing.Dial) hands the same
// frame to the same server path on its own goroutine, with no socket.
package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adindex/internal/core"
	"adindex/internal/corpus"
	"adindex/internal/durable"
	"adindex/internal/multiserver"
	"adindex/internal/textnorm"
)

// ElasticCluster is a sharded broad-match index whose shard count and
// slot ownership change while queries keep flowing. Rebalancing — a
// split onto a fresh shard, a merge of one shard into another, or a
// migration of slots between existing shards — is a live handoff that
// rebuilds both sides in private:
//
//  1. begin: a dual-write journal opens for every slot the source or the
//     target owns, and both shards' contents are copied — unsorted,
//     memcpy-scale — in the same critical section, so capture + journal
//     tile each side's mutation stream exactly.
//  2. load: two PRIVATE staging indexes are built with no cluster lock
//     held — the source's kept slots from the capture, and the target's
//     base plus the moving ads.
//  3. catch-up: journaled mutations replay in bounded rounds, each onto
//     the side its slot lands on; an unbounded window aborts.
//  4. cutover: one short critical section replays the final journal
//     tail, swaps both staging indexes in (two pointer assignments), and
//     publishes the successor routing table (epoch+1).
//
// Both sides live in this process, so the ads and the journaled
// mutations pass to the staging indexes as values: nothing is encoded.
//
// The cluster's invariant is that shard i holds exactly the ads whose
// slots shard i owns under the current table (CheckOwnership). Before
// the cutover the live shards are untouched but for their own
// mutations; the cutover replaces both sides and the table together.
// So a query needs no ownership filter, and nothing is left behind to
// drain. A failure in any phase aborts: the journal closes, the staging
// indexes are dropped untouched by serving state, and the deployment
// stays on the last stable epoch.
type ElasticCluster struct {
	opts ElasticOptions

	// mu guards the routing table pointer, the shard slice, migration
	// state, phase and the last abort's error; queries hold it shared,
	// mutations and rebalance critical sections exclusive.
	mu      sync.RWMutex
	table   *RoutingTable
	shards  []*core.Index
	mig     *migration
	phase   string
	lastErr string

	// admin serializes rebalance operations end to end.
	admin sync.Mutex

	loads     []*atomic.Uint64 // matches served per shard (placement signal)
	completed atomic.Uint64
	aborted   atomic.Uint64

	// handoffFault, when set, is invoked at each handoff phase; a
	// non-nil return aborts the migration there. Test seam.
	handoffFault func(phase string) error
}

// migration is the in-flight handoff state.
type migration struct {
	kind  string // "split", "merge", "migrate"
	slots map[int]bool
	from  int
	to    int
	fresh bool // target shard was created by this handoff

	// journal is the dual-write journal: every mutation since capture on
	// a slot the source or the target owns, one list per side the slot
	// lands on at cutover. Each staging index replaces its live shard
	// wholesale, so it must absorb every concurrent mutation of what it
	// will own.
	journal      [2][]durable.Record
	deltaRecords int
	totalRecords int
}

// The two sides of a handoff, indexing migration.journal and the staging
// pair.
const (
	kept  = 0 // the source's remaining slots
	moved = 1 // the target's own slots plus the moving ones
)

// ElasticOptions tunes an ElasticCluster. Zero values select defaults.
type ElasticOptions struct {
	// Slots is the slot-universe size (default DefaultSlots).
	Slots int
	// MaxShards caps shard positions; splits beyond it fail (default 8).
	// Serving layers provision one server per position up front, so
	// growth never races a client against a listener that isn't up yet.
	MaxShards int
	// MaxWords is each shard index's locator bound (core.Options.MaxWords;
	// default 10).
	MaxWords int

	// maxDeltaRecords aborts a handoff whose dual-write window exceeds
	// this many journaled mutations (default 4096; tests move it).
	maxDeltaRecords int
}

func (o ElasticOptions) coreOptions() core.Options {
	return core.Options{MaxWords: o.MaxWords}
}

func (o ElasticOptions) withDefaults() ElasticOptions {
	if o.Slots == 0 {
		o.Slots = DefaultSlots
	}
	if o.MaxShards == 0 {
		o.MaxShards = 8
	}
	if o.maxDeltaRecords == 0 {
		o.maxDeltaRecords = 4096
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
	// handoffBatch is how many ads a handoff stages per uninterrupted
	// work chunk: the longest it can hold a core that a query is waiting
	// for.
	handoffBatch = 8
	// handoffPace is how long the handoff goroutine parks between work
	// chunks (the effective floor is the host's timer granularity).
	handoffPace = 700 * time.Microsecond
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
// epoch-1 routing table: LoadElastic over the ads in columns. It leaves
// the caller's slice as it was.
func NewElastic(ads []corpus.Ad, numShards int, opts ElasticOptions) (*ElasticCluster, error) {
	return LoadElastic(corpus.FromAds(ads), numShards, opts)
}

// LoadElastic partitions the ads of in (corpus.ReadColumns) across
// numShards shards under a fresh epoch-1 routing table. Each shard is
// built over its positions in in, so the start holds one copy of the
// corpus, the caller's; the shards keep nothing of it but the
// vocabulary's strings.
func LoadElastic(in *corpus.Columns, numShards int, opts ElasticOptions) (*ElasticCluster, error) {
	opts = opts.withDefaults()
	if numShards > opts.MaxShards {
		return nil, fmt.Errorf("shard: %d initial shards exceed MaxShards %d", numShards, opts.MaxShards)
	}
	table, err := NewRoutingTable(numShards, opts.Slots)
	if err != nil {
		return nil, err
	}
	// Each shard's positions in in, ascending, in one list of 4 B per ad:
	// counted, then filled.
	var words []string
	owner := func(i int) int {
		words = in.AppendWords(words[:0], i)
		return table.OwnerOf(words)
	}
	size := make([]int, numShards)
	for i := 0; i < in.Len(); i++ {
		size[owner(i)]++
	}
	all := make([]int32, in.Len())
	parts := make([][]int32, numShards)
	for o, n := range size {
		parts[o], all = all[:0:n], all[n:]
	}
	for i := 0; i < in.Len(); i++ {
		o := owner(i)
		parts[o] = append(parts[o], int32(i))
	}
	// The shards share nothing; they are built side by side.
	ec := &ElasticCluster{opts: opts, table: table, shards: make([]*core.Index, numShards)}
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ec.shards[i] = core.LoadAt(in, parts[i], opts.coreOptions())
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

// NumAds returns the ad count: every ad lives on exactly one shard.
func (ec *ElasticCluster) NumAds() int {
	ec.mu.RLock()
	defer ec.mu.RUnlock()
	n := 0
	for _, ix := range ec.shards {
		n += ix.NumAds()
	}
	return n
}

// CheckOwnership verifies the cluster's invariant: the routing table is
// valid, and every record on shard i lies in a slot shard i owns under
// it. It copies every ad, so it is for tests and simulation harnesses,
// never a serving path.
func (ec *ElasticCluster) CheckOwnership() error {
	ec.mu.RLock()
	defer ec.mu.RUnlock()
	if err := ec.table.Validate(); err != nil {
		return err
	}
	for id, ix := range ec.shards {
		for _, ad := range ix.Ads() {
			if owner := ec.table.OwnerOf(ad.Words); owner != id {
				return fmt.Errorf("shard: ad %d (%q) is on shard %d, its slot's owner is %d (epoch %d)",
					ad.ID, ad.Phrase, id, owner, ec.table.Epoch)
			}
		}
	}
	return nil
}

// Insert routes the ad to its slot's owner, journaling it when a handoff
// is in flight.
func (ec *ElasticCluster) Insert(ad corpus.Ad) {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	slot := ec.table.SlotOfWords(ad.Words)
	ec.shards[ec.table.Owners[slot]].Insert(ad)
	if ec.mig != nil {
		ec.journalLocked(slot, durable.Record{Op: durable.OpInsert, Ad: ad})
	}
}

// Delete removes one copy of (id, phrase) from its slot's owner,
// journaling the delete when a handoff is in flight.
func (ec *ElasticCluster) Delete(id uint64, phrase string) bool {
	words := textnorm.WordSet(phrase)
	if len(words) == 0 {
		return false
	}
	ec.mu.Lock()
	defer ec.mu.Unlock()
	slot := ec.table.SlotOfWords(words)
	found := ec.shards[ec.table.Owners[slot]].Delete(id, phrase)
	if ec.mig != nil {
		ec.journalLocked(slot, durable.Record{Op: durable.OpDelete, ID: id, Phrase: phrase})
	}
	return found
}

// journalLocked appends a mutation of slot to the in-flight handoff's
// journal when either side owns the slot, on the side the slot lands on
// at cutover. The caller holds mu exclusively.
func (ec *ElasticCluster) journalLocked(slot int, rec durable.Record) {
	m, owner := ec.mig, ec.table.Owners[slot]
	if owner != m.from && owner != m.to {
		return
	}
	side := moved
	if owner == m.from && !m.slots[slot] {
		side = kept
	}
	m.journal[side] = append(m.journal[side], rec)
	m.deltaRecords++
	m.totalRecords++
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
// and the shard's matches go from its records into the response frame —
// their IDs, or for a records request IDs and metadata, read under the
// lock the match ran under — flagged when the deadline or the walk bound
// left matches out. A position with no shard yet answers empty.
func (b shardBackend) AppendMatch(dst []byte, req multiserver.Request) ([]byte, error) {
	b.ec.mu.RLock()
	defer b.ec.mu.RUnlock()
	if req.Tagged && req.Epoch != b.ec.table.Epoch {
		return nil, &multiserver.StaleEpochError{ClientEpoch: req.Epoch, ServerEpoch: b.ec.table.Epoch}
	}
	sc := multiserver.GetMatchScratch()
	defer sc.Release()
	if b.id < len(b.ec.shards) {
		if n := sc.BroadMatch(b.ec.shards[b.id], req.Query, req.Deadline); n > 0 {
			b.ec.loads[b.id].Add(uint64(n))
		}
	}
	return sc.AppendReply(dst, req), nil
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
	return &Route{Table: *t, Replicas: reps}
}

// Dial is the front end of the process that serves the positions: it is
// DialRoute over ec.RouteOver(es.Addrs()), ec being the cluster es serves,
// except that each position is asked through its server's Local Conn. A
// query builds the request frame a socket would carry and has it answered
// by the position's own request path on the calling goroutine, so it
// starts no goroutine and touches no socket, and gets the wire's answer
// byte for byte. The positions keep their listeners for remote clients.
func (es *ElasticServing) Dial(ec *ElasticCluster, opts Options) (*NetClient, error) {
	local := make(map[string]*multiserver.Server, len(es.servers))
	for i, srv := range es.servers {
		local[es.addrs[i]] = srv
	}
	return dialRoute(func() (*Route, error) { return ec.RouteOver(es.addrs), nil }, opts, local)
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
	// journal, and capture both sides — all in one critical section, so
	// the capture and the journal tile the mutation stream with no gap
	// and no overlap.
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
		ec.shards = append(ec.shards, core.New(nil, ec.opts.coreOptions()))
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
	srcTable := ec.table
	// Copy both sides' contents unsorted, so the critical section holds
	// only a memcpy-scale cost, not a sort. Journal replay appends, so a
	// record also reflected in the capture would double. Both live shards
	// are replaced wholesale at cutover. The split by slot runs outside
	// the lock because an ad's slot is a pure function of its words.
	capture := ec.shards[from].AppendAds(nil)
	var base []corpus.Ad
	if !fresh {
		base = ec.shards[to].AppendAds(nil)
	}
	ec.phase = "begin"
	ec.mu.Unlock()

	// Index work parks every batch ads; the slot split, an order of
	// magnitude cheaper per ad, every chunk. Both run outside the lock.
	// The split is two lists of positions in the capture, by the side
	// each ad lands on, so the handoff holds one copy of the source.
	const batch, chunk = handoffBatch, 16 * handoffBatch
	var at [2][]int32
	for i := range capture {
		side := kept
		if moving[srcTable.SlotOfWords(capture[i].Words)] {
			side = moved
		}
		at[side] = append(at[side], int32(i))
		if (i+1)%chunk == 0 {
			pace()
		}
	}

	defer func() {
		if err != nil {
			ec.abort(err)
		}
	}()

	if err := ec.faultAt("begin"); err != nil {
		return err
	}

	// Phase: load. Both sides are built in PRIVATE staging indexes — the
	// live shards and the cluster lock are untouched, so queries never
	// contend with the load (a lock-held batch loop here starved readers
	// for the whole handoff under sustained fan-out traffic). The source
	// side is its kept slots; the target side starts from the target's
	// captured base and takes the moving ads. Inserts pause every
	// handoffBatch: on small GOMAXPROCS an unbroken bulk build
	// monopolizes CPU and stalls every in-flight query for its full
	// length.
	ec.setPhase("load")
	staging := [2]*core.Index{core.New(nil, ec.opts.coreOptions()), core.New(nil, ec.opts.coreOptions())}
	loaded := 0
	stage := func(side int, ad *corpus.Ad) {
		staging[side].Insert(*ad)
		if loaded++; loaded%batch == 0 {
			pace()
		}
	}
	for _, i := range at[kept] {
		stage(kept, &capture[i])
	}
	for i := range base {
		stage(moved, &base[i])
	}
	for _, i := range at[moved] {
		stage(moved, &capture[i])
	}
	if err := ec.faultAt("load"); err != nil {
		return err
	}

	// Phase: catch-up. Replay the mutations journaled behind the
	// capture in bounded rounds; a window that keeps growing past
	// maxDeltaRecords aborts rather than chasing forever.
	ec.setPhase("catchup")
	for round := 0; round < maxCatchUpRounds; round++ {
		ec.mu.Lock()
		journal := ec.mig.journal
		ec.mig.journal = [2][]durable.Record{}
		ec.mig.deltaRecords = 0
		total := ec.mig.totalRecords
		ec.mu.Unlock()
		if total > ec.opts.maxDeltaRecords {
			return fmt.Errorf("shard: handoff dual-write window exceeded %d records", ec.opts.maxDeltaRecords)
		}
		if len(journal[kept])+len(journal[moved]) == 0 {
			break
		}
		replay(journal, staging)
	}
	if err := ec.faultAt("catchup"); err != nil {
		return err
	}

	// Phase: cutover. One short critical section: replay the final
	// journal tail, swap both staging indexes in, publish the successor
	// table, close the journal. The swaps are pointer assignments, so
	// cutover cost is O(final delta), not O(moved state).
	ec.mu.Lock()
	ec.phase = "cutover"
	replay(ec.mig.journal, staging)
	next, terr := ec.table.MoveSlots(slots, to)
	if terr != nil {
		ec.mu.Unlock()
		return terr
	}
	ec.shards[from], ec.shards[to] = staging[kept], staging[moved]
	ec.table = next
	ec.mig = nil
	ec.phase = ""
	ec.mu.Unlock()
	ec.completed.Add(1)
	return nil
}

// replay applies journaled mutations to the staging pair, each side's
// to its own index.
func replay(journal [2][]durable.Record, staging [2]*core.Index) {
	for side, recs := range journal {
		for _, rec := range recs {
			switch rec.Op {
			case durable.OpInsert:
				staging[side].Insert(rec.Ad)
			case durable.OpDelete:
				staging[side].Delete(rec.ID, rec.Phrase)
			}
		}
	}
}

// abort rolls a failed handoff back to the last stable epoch: the
// journal closes, the staging indexes are dropped with it, a fresh
// target's placeholder shard is removed, and the error is recorded.
func (ec *ElasticCluster) abort(cause error) {
	ec.mu.Lock()
	mig := ec.mig
	ec.mig = nil
	ec.phase = ""
	// The live shards were never touched but for their own mutations, so
	// neither needs a rebuild.
	if mig != nil && mig.fresh {
		ec.shards = ec.shards[:mig.to]
		ec.loads = ec.loads[:mig.to]
	}
	ec.lastErr = cause.Error()
	ec.mu.Unlock()
	ec.aborted.Add(1)
}

func (ec *ElasticCluster) setPhase(p string) {
	ec.mu.Lock()
	ec.phase = p
	ec.mu.Unlock()
}

// SetRebalanceHook installs fn, invoked at each handoff phase ("begin",
// "load", "catchup") of subsequent rebalances. A non-nil return aborts
// the handoff at that phase. The hook runs outside the
// cluster locks, so it may mutate and query the cluster — simulation
// harnesses use this to interleave traffic mid-handoff deterministically.
// Pass nil to clear.
func (ec *ElasticCluster) SetRebalanceHook(fn func(phase string) error) {
	ec.mu.Lock()
	ec.handoffFault = fn
	ec.mu.Unlock()
}

func (ec *ElasticCluster) faultAt(phase string) error {
	ec.mu.RLock()
	fn := ec.handoffFault
	ec.mu.RUnlock()
	if fn == nil {
		return nil
	}
	return fn(phase)
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
		LastError:    ec.lastErr,
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
