package shard

import (
	"errors"
	"fmt"
	"time"

	"adindex/internal/multiserver"
)

// Routed (elastic) NetClient mode: the shard topology is a versioned
// Route fetched through a callback rather than a fixed address list.
// Every query is tagged with the client's routing epoch; when a
// rebalance retires that epoch the serving shard answers with a typed
// stale-epoch rejection and the client refreshes the route and retries
// the whole query — transparently, without burning retry or breaker
// budget (the backend was alive and correct to refuse). A client that
// lags a clean cutover therefore never hard-fails; it pays one extra
// round trip plus one route fetch.

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

// DialRoute connects to an elastic deployment through a route source:
// fetch returns the current routing table and per-shard replica
// addresses (e.g. from an admin endpoint). The route is fetched once
// eagerly; afterwards the client refreshes whenever a query hits a
// stale-epoch rejection. Shard connections dial lazily and are cached
// by address across refreshes, so a rebalance does not drop warm
// connections to shards that did not move.
func DialRoute(fetch func() (*Route, error), adAddr string, opts Options) (*NetClient, error) {
	if fetch == nil {
		return nil, fmt.Errorf("shard: DialRoute needs a route source")
	}
	opts = opts.withDefaults()
	nc := &NetClient{
		opts:      opts,
		routed:    true,
		fetch:     fetch,
		connCache: make(map[string]*multiserver.Conn),
	}
	if err := nc.refreshRoute(); err != nil {
		nc.Close()
		return nil, fmt.Errorf("shard: initial route fetch: %w", err)
	}
	ad, err := multiserver.DialConn(adAddr, opts.Conn)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("shard: dialing ad server %s: %w", adAddr, err)
	}
	nc.ad = ad
	return nc, nil
}

// Epoch returns the routing epoch the client is operating at (0 for a
// non-routed client).
func (nc *NetClient) Epoch() uint64 {
	if !nc.routed {
		return 0
	}
	return nc.route.Load().route.Table.Epoch
}

// runRouted fans the query out under the current routing table,
// refreshing and retrying on stale-epoch rejections.
func (nc *NetClient) runRouted(sc *fanScratch, query string, deadline time.Time, partial bool) (*Result, error) {
	for refresh := 0; ; refresh++ {
		st := nc.route.Load()
		sc.req = append(multiserver.AppendEpochRequest(sc.req[:0], st.route.Table.Epoch, nil), query...)
		res, err := nc.fanOut(sc, st.shards, st.active, deadline, partial)
		if err == nil || !errors.Is(err, multiserver.ErrStaleEpoch) {
			return res, err
		}
		if refresh >= maxEpochRefreshes {
			return nil, fmt.Errorf("shard: route still stale after %d refreshes: %w", refresh, err)
		}
		nc.staleRetries.Add(1)
		if rerr := nc.refreshRoute(); rerr != nil {
			return nil, fmt.Errorf("shard: route refresh after stale epoch: %w", rerr)
		}
	}
}

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
