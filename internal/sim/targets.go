package sim

import (
	"fmt"
	"time"

	"adindex"
	"adindex/internal/corpus"
	"adindex/internal/diskfault"
	"adindex/internal/faultnet"
	"adindex/internal/multiserver"
	"adindex/internal/shard"
)

// doomedID identifies the synthetic ad whose insert is torn mid-frame by
// a crashing write. It is never acknowledged to the oracle, never drawn
// from the pool, and must never survive recovery.
const doomedID = uint64(1) << 62

// durTarget is the crash-restarted durable index. All disk I/O flows
// through a diskfault.Injector so crash points (including torn final
// frames) are exact and deterministic.
type durTarget struct {
	cfg Config
	ix  *adindex.Index
	inj *diskfault.Injector
}

func newDurTarget(cfg Config) (*durTarget, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("sim: durable target requires Config.Dir")
	}
	d := &durTarget{cfg: cfg, inj: diskfault.New(nil, diskfault.Plan{})}
	ix, _, err := adindex.OpenDurable(cfg.Dir, indexOptions(cfg), d.durableConfig())
	d.ix = ix
	return d, err
}

// crash kills and reopens the durable index. With torn, a doomed insert
// is first written through an armed injector that crashes the WAL append
// mid-frame, leaving a torn final frame on disk: recovery must truncate
// it silently (torn tails of unacknowledged records are not data loss).
func (d *durTarget) crash(opIndex int, torn bool) error {
	if torn {
		d.inj.Arm(diskfault.Plan{CrashAtStep: 1, TornFraction: 0.5, Seed: int64(opIndex)})
		doomed := corpus.NewAd(doomedID, "doomed torn frame", corpus.Meta{})
		d.ix.Insert(doomed) // dies mid-frame; never acknowledged to the oracle
	}
	d.ix.CrashForTesting()
	d.inj.Arm(diskfault.Plan{}) // the next process sees a healthy disk
	ix, rep, err := adindex.OpenDurable(d.cfg.Dir, indexOptions(d.cfg), d.durableConfig())
	if err != nil {
		return fmt.Errorf("recovery failed: %v", err)
	}
	if rep.Degraded() {
		ix.Close()
		return fmt.Errorf("recovery degraded after clean-contract crash: %+v", *rep)
	}
	d.ix = ix
	return nil
}

func (d *durTarget) durableConfig() adindex.DurableConfig {
	return adindex.DurableConfig{FS: d.inj, SnapshotEvery: d.cfg.SnapshotEvery}
}

func (d *durTarget) close() {
	if d.ix != nil {
		d.ix.Close()
	}
}

func indexOptions(cfg Config) adindex.Options {
	opts := adindex.Options{MaxWords: cfg.MaxWords, MaxDeltaAds: cfg.MaxDeltaAds}
	if cfg.Rewrite {
		// Same deterministic synonym table and default budget as the
		// oracle's planner — divergence then implicates the stack, not
		// the configuration.
		opts.Rewrite = &adindex.RewriteOptions{Synonyms: simClasses(corpus.MakeVocabulary(cfg.Gen.Vocab))}
	}
	return opts
}

// simConnOpts is the strict, fast-failing connection tuning of the
// networked target: tight retry/backoff so fault schedules run in test
// time, deterministic jitter seeded by the run seed.
func simConnOpts(cfg Config) multiserver.ConnOpts {
	return multiserver.ConnOpts{
		Timeout:          2 * time.Second,
		MaxRetries:       1,
		RetryBase:        time.Millisecond,
		RetryMax:         5 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  20 * time.Millisecond,
		Seed:             cfg.Seed,
	}
}

// The elastic deployment's fixed topology knobs: a small slot universe
// so splits/merges interact within short schedules, and a low shard cap
// so schedules hit the growth boundary. The generator's shadow table
// (Generate) must mirror these exactly.
const (
	simElasticSlots     = 16
	simElasticMaxShards = 4
)

// elasticTarget is the networked deployment: Replicas copies of a
// shard.ElasticCluster, every shard position of every replica served by
// an epoch-checking TCP server behind a faultnet proxy, queried through
// one strict shard.NetClient — on the cluster's live route under
// cfg.Elastic (one round trip per shard, records in the reply), on the
// frozen route of the initial shards otherwise (the static deployment:
// the same target with no rebalance in its schedule, IDs from the shards
// and a second hop to an ad server). Mutations are applied to every
// replica directly (modeling an out-of-band replication channel);
// kill/heal partition and heal all of one replica's proxies. Rebalance ops run the live handoff on every
// replica in lockstep (so epochs agree), with the runner's mid-handoff
// callback interleaving an insert (through the dual-write journal) and
// an oracle-checked query on replica 0's pre-cutover phases.
type elasticTarget struct {
	cfg        Config
	replicas   []*shard.ElasticCluster
	servings   []*shard.ElasticServing
	proxies    [][]*faultnet.Proxy // [replica][position]
	proxyAddrs [][]string          // [replica][position]
	adSrv      *multiserver.Server // static deployment only
	client     *shard.NetClient
	dead       int // replica currently partitioned, -1 = none
}

func newElasticTarget(cfg Config) (*elasticTarget, error) {
	e := &elasticTarget{cfg: cfg, dead: -1}
	eopts := shard.ElasticOptions{
		Slots:     simElasticSlots,
		MaxShards: simElasticMaxShards,
		// As indexOptions: the shards must answer as the single-node
		// targets do.
		MaxWords: cfg.MaxWords,
	}
	for r := 0; r < cfg.Replicas; r++ {
		ec, err := shard.NewElastic(nil, cfg.Shards, eopts)
		if err != nil {
			e.close()
			return nil, err
		}
		es, err := ec.Serve()
		if err != nil {
			e.close()
			return nil, err
		}
		e.replicas = append(e.replicas, ec)
		e.servings = append(e.servings, es)
		var row []*faultnet.Proxy
		var addrs []string
		for _, addr := range es.Addrs() {
			p, err := faultnet.New(addr, nil)
			if err != nil {
				e.close()
				return nil, err
			}
			row = append(row, p)
			addrs = append(addrs, p.Addr())
		}
		e.proxies = append(e.proxies, row)
		e.proxyAddrs = append(e.proxyAddrs, addrs)
	}
	// Replica 0's table is authoritative; epochs are in lockstep outside
	// rebalance calls, and the proxy addresses are static (positions are
	// pre-provisioned up to the shard cap).
	route := func() (*shard.Route, error) { return e.replicas[0].RouteOver(e.proxyAddrs...), nil }
	opts := shard.Options{Conn: simConnOpts(cfg)}
	var client *shard.NetClient
	var err error
	if cfg.Elastic {
		// The live route's shards answer with records, which the runner
		// holds to the oracle; there is no ad server to ask.
		client, err = shard.DialRoute(route, "", opts)
	} else {
		// The frozen route is ID-only: its second hop goes to an ad server
		// with no ads, answering zeros the harness never inspects (the
		// static comparison is on ID multisets).
		if e.adSrv, err = multiserver.NewAdServer("127.0.0.1:0", multiserver.ServeOpts{}, nil); err != nil {
			e.close()
			return nil, err
		}
		r, _ := route()
		client, err = shard.DialReplicaShards(r.Replicas, e.adSrv.Addr(), opts)
	}
	if err != nil {
		e.close()
		return nil, err
	}
	e.client = client
	return e, nil
}

func (e *elasticTarget) insert(ad corpus.Ad) {
	for _, ec := range e.replicas {
		ec.Insert(ad)
	}
}

// delete applies the delete to every replica and reports the (agreeing)
// found verdicts; replicas built from identical mutation streams must
// never disagree, so a split verdict is itself a divergence.
func (e *elasticTarget) delete(id uint64, phrase string) (found bool, diverged bool) {
	for i, ec := range e.replicas {
		f := ec.Delete(id, phrase)
		if i == 0 {
			found = f
		} else if f != found {
			return found, true
		}
	}
	return found, false
}

// query is a strict fan-out: any shard failure fails it.
func (e *elasticTarget) query(q string) (*shard.Result, error) { return e.client.QueryResult(q) }

// kill partitions replica r. Kills are gated on the fault budget (at
// most one replica down) so that a schedule mangled by the shrinker can
// never take the whole deployment down and fail for the wrong reason.
func (e *elasticTarget) kill(r int) {
	if e.dead >= 0 || r < 0 || r >= len(e.proxies) {
		return
	}
	e.dead = r
	for _, p := range e.proxies[r] {
		p.Partition()
	}
}

// heal heals replica r (no-op when it is not the partitioned one).
func (e *elasticTarget) heal(r int) {
	if r != e.dead || r < 0 || r >= len(e.proxies) {
		return
	}
	e.dead = -1
	for _, p := range e.proxies[r] {
		p.Heal()
	}
}

func (e *elasticTarget) numAds() int {
	if len(e.replicas) == 0 {
		return 0
	}
	return e.replicas[0].NumAds()
}

// stateCheck returns a non-empty divergence description when the
// deployment's own invariants fail — every replica at the same routing
// epoch with every shard holding exactly its own slots, a structurally
// valid route — and "" when healthy.
func (e *elasticTarget) stateCheck() string {
	e0 := e.replicas[0]
	for ri, ec := range e.replicas {
		if got, want := ec.Epoch(), e0.Epoch(); got != want {
			return fmt.Sprintf("replica %d at epoch %d, replica 0 at %d", ri, got, want)
		}
		if err := ec.CheckOwnership(); err != nil {
			return fmt.Sprintf("replica %d: %v", ri, err)
		}
	}
	if err := e0.RouteOver(e.proxyAddrs...).Validate(); err != nil {
		return fmt.Sprintf("published route invalid: %v", err)
	}
	return ""
}

// rebalance applies one split/merge/migrate to every replica in
// lockstep. The mid callback fires at replica 0's pre-cutover handoff
// phases (all replicas are still at the old epoch then, so traffic from
// inside the callback sees a consistent deployment). Invalid rebalances
// (possible after shrinking) no-op identically on every replica; a
// split verdict or an epoch divergence is returned as a description.
func (e *elasticTarget) rebalance(op *Op, mid func(phase string)) (applied bool, divergence string) {
	outcomes := make([]error, len(e.replicas))
	for ri, ec := range e.replicas {
		if ri == 0 && mid != nil {
			ec.SetRebalanceHook(func(phase string) error {
				mid(phase)
				return nil
			})
		}
		var err error
		switch op.Kind {
		case OpSplit:
			_, err = ec.Split(op.Shard)
		case OpMerge:
			err = ec.Merge(op.Shard, op.To)
		case OpMigrate:
			err = ec.Migrate(op.Shard, op.To)
		}
		if ri == 0 && mid != nil {
			ec.SetRebalanceHook(nil)
		}
		outcomes[ri] = err
	}
	for ri := 1; ri < len(outcomes); ri++ {
		if (outcomes[ri] == nil) != (outcomes[0] == nil) {
			return false, fmt.Sprintf("replicas disagree on %s(%d,%d): replica 0 %v, replica %d %v",
				op.Kind, op.Shard, op.To, outcomes[0], ri, outcomes[ri])
		}
	}
	if d := e.stateCheck(); d != "" {
		return false, d
	}
	return outcomes[0] == nil, ""
}

func (e *elasticTarget) close() {
	if e.client != nil {
		e.client.Close()
	}
	for _, row := range e.proxies {
		for _, p := range row {
			p.Close()
		}
	}
	if e.adSrv != nil {
		e.adSrv.Close()
	}
	for _, es := range e.servings {
		es.Close()
	}
}
