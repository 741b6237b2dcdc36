package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"adindex/internal/shard"
)

// AttachRebalancer publishes an elastic cluster on this server:
// /metrics gains an "elastic" section, /readyz annotates an in-flight
// rebalance (the node REMAINS ready — a live handoff keeps serving
// queries from the old owner until cutover, so orchestrators must not
// route around it), and /admin/rebalance accepts split/merge/migrate.
// Call it before Start.
func (s *Server) AttachRebalancer(ec *shard.ElasticCluster) {
	s.elastic = ec
}

// handleRebalance is the admin surface for live topology changes.
//
//	GET  /admin/rebalance                          status (same as /metrics "elastic")
//	POST /admin/rebalance?op=split&shard=N         split shard N onto a fresh shard
//	POST /admin/rebalance?op=split                 split the hottest shard (SuggestSplit)
//	POST /admin/rebalance?op=migrate&from=A&to=B   move half of A's slots to B
//	POST /admin/rebalance?op=merge&from=A&to=B     move all of A's slots to B
//
// Operations run synchronously: the response reports the post-cutover
// (or post-abort) status. Concurrent admin calls serialize inside the
// cluster; queries keep flowing throughout.
func (s *Server) handleRebalance(w http.ResponseWriter, r *http.Request) {
	if s.elastic == nil {
		http.Error(w, "not an elastic node", http.StatusNotImplemented)
		return
	}
	switch r.Method {
	case http.MethodGet:
		s.writeJSON(w, s.elastic.Status())
	case http.MethodPost:
		s.runRebalance(w, r, s.elastic)
	default:
		http.Error(w, "GET or POST", http.StatusMethodNotAllowed)
	}
}

// rebalanceResponse is the POST /admin/rebalance reply.
type rebalanceResponse struct {
	Op string `json:"op"`
	// NewShard is the shard a split provisioned (split only).
	NewShard int                   `json:"new_shard,omitempty"`
	Status   shard.RebalanceStatus `json:"status"`
}

func (s *Server) runRebalance(w http.ResponseWriter, r *http.Request, reb *shard.ElasticCluster) {
	q := r.URL.Query()
	intArg := func(name string) (int, bool) {
		v, err := strconv.Atoi(q.Get(name))
		if err != nil {
			http.Error(w, fmt.Sprintf("bad or missing %q", name), http.StatusBadRequest)
			return 0, false
		}
		return v, true
	}
	resp := rebalanceResponse{Op: q.Get("op")}
	var err error
	switch resp.Op {
	case "split":
		src := reb.SuggestSplit()
		if q.Get("shard") != "" {
			var ok bool
			if src, ok = intArg("shard"); !ok {
				return
			}
		} else if src < 0 {
			http.Error(w, "no splittable shard (at capacity or too few slots)", http.StatusConflict)
			return
		}
		resp.NewShard, err = reb.Split(src)
	case "migrate", "merge":
		from, ok := intArg("from")
		if !ok {
			return
		}
		to, ok := intArg("to")
		if !ok {
			return
		}
		if resp.Op == "migrate" {
			err = reb.Migrate(from, to)
		} else {
			err = reb.Merge(from, to)
		}
	default:
		http.Error(w, "op must be split, migrate, or merge", http.StatusBadRequest)
		return
	}
	resp.Status = reb.Status()
	if err != nil {
		// The cluster already rolled back to the last stable epoch; tell
		// the operator what stopped the handoff alongside that status.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		if encErr := json.NewEncoder(w).Encode(struct {
			Error string `json:"error"`
			rebalanceResponse
		}{err.Error(), resp}); encErr != nil {
			s.cfg.Logger.Printf("encode response: %v", encErr)
		}
		return
	}
	s.writeJSON(w, resp)
}
