package shard

import (
	"fmt"

	"adindex/internal/multiserver"
)

// A NetClient's shard topology is a Route fetched through a callback.
// A versioned route (epoch >= 1, an elastic deployment's) is re-fetched
// whenever a rebalance retires its epoch; a frozen route (epoch 0, a
// static address list's) is fetched once, at dial.

// routeState is one immutable routed topology: the table plus the
// replica sets (indexed by shard position) built from it.
type routeState struct {
	route  *Route
	shards []*replicaSet
	active []int // route.Table.ActiveShards(), computed once per route
}

// maxEpochRefreshes bounds refresh-and-retry rounds per query, so a
// route source that keeps serving retired epochs (or a deployment
// rebalancing faster than the client can refetch) degrades into an
// error instead of a livelock.
const maxEpochRefreshes = 3

// DialRoute connects to a sharded deployment through a route source:
// fetch returns the current routing table and per-shard replica
// addresses (e.g. from an admin endpoint). The route is fetched once
// eagerly; afterwards the client refreshes whenever a query hits a
// stale-epoch rejection. Every replica of the fetched route's active
// shards is dialed now and at least one per shard must be reachable
// (the rest, and shards a later route adds, connect lazily). Connections
// are cached by address across refreshes, so a rebalance does not drop
// warm connections to shards that did not move.
//
// The second argument, an ad-metadata server's address, is accepted and
// ignored: the shards answer with their records, so the client asks no
// ad server.
func DialRoute(fetch func() (*Route, error), _ string, opts Options) (*NetClient, error) {
	if fetch == nil {
		return nil, fmt.Errorf("shard: DialRoute needs a route source")
	}
	opts = opts.withDefaults()
	nc := &NetClient{
		opts:      opts,
		fetch:     fetch,
		connCache: make(map[string]*multiserver.Conn),
	}
	if err := nc.refreshRoute(); err != nil {
		return nil, fmt.Errorf("shard: initial route fetch: %w", err)
	}
	st := nc.route.Load()
	for _, id := range st.active {
		reachable := false
		var dialErr error
		for _, c := range st.shards[id].conns {
			if err := c.Dial(); err != nil {
				dialErr = err
			} else {
				reachable = true
			}
		}
		if !reachable {
			nc.Close()
			return nil, fmt.Errorf("shard: no reachable replica for shard %d: %w", id, dialErr)
		}
	}
	return nc, nil
}

// DialReplicaShards connects to a static replicated deployment —
// replicaAddrs[i] lists the interchangeable replica addresses of shard
// i — by dialing its frozen route.
func DialReplicaShards(replicaAddrs [][]string, opts Options) (*NetClient, error) {
	route := frozenRoute(replicaAddrs)
	return DialRoute(func() (*Route, error) { return route, nil }, "", opts)
}

// Epoch returns the routing epoch the client is operating at (0 on a
// frozen route).
func (nc *NetClient) Epoch() uint64 { return nc.route.Load().route.Table.Epoch }

// refreshRoute fetches, validates, and publishes a new route state.
// Concurrent refreshes are harmless: each publishes a validated state
// and queries always load the latest.
func (nc *NetClient) refreshRoute() error {
	route, err := nc.fetch()
	if err != nil {
		return err
	}
	if err := route.Validate(); err != nil {
		return err
	}
	sets := make([]*replicaSet, route.Table.NumShards)
	for id := range sets {
		rs := &replicaSet{}
		if id < len(route.Replicas) {
			for _, addr := range route.Replicas[id] {
				rs.conns = append(rs.conns, nc.connFor(addr))
			}
		}
		sets[id] = rs
	}
	nc.route.Store(&routeState{route: route, shards: sets, active: route.Table.ActiveShards()})
	nc.refreshes.Add(1)
	return nil
}

// connFor returns the cached connection for addr, creating a lazily
// dialing one on first use.
func (nc *NetClient) connFor(addr string) *multiserver.Conn {
	nc.connMu.Lock()
	defer nc.connMu.Unlock()
	if c, ok := nc.connCache[addr]; ok {
		return c
	}
	c := multiserver.NewConn(addr, nc.opts.Conn)
	nc.connCache[addr] = c
	return c
}
