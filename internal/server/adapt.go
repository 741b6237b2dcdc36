// Continuous-adaptation serving support: a per-query modeled-cost
// histogram and the adapt section of /metrics.
//
// Wall-clock latency through an HTTP stack is dominated by per-request
// overhead (syscalls, encoding, scheduling), which drowns the tens of
// microseconds a layout regression actually costs per query. The
// modeled-cost histogram measures what the adaptation loop manages —
// cost-model units charged by the index walk itself — so layout drift
// and its repair are visible at p99 even when wall-clock noise is 10×
// the signal. This is the "clock-injected" latency used by the drift
// tests and cmd/adbench's adapt experiment.
package server

import "adindex"

// CostHistogramSnapshot is the JSON form of the modeled-cost histogram.
type CostHistogramSnapshot struct {
	Count     uint64  `json:"count"`
	MeanUnits float64 `json:"mean_units"`
	P50Units  float64 `json:"p50_units"`
	P95Units  float64 `json:"p95_units"`
	P99Units  float64 `json:"p99_units"`
}

// costSnapshot captures a cost histogram (approximate under load).
func costSnapshot(h *Histogram) *CostHistogramSnapshot {
	return &CostHistogramSnapshot{
		Count:     h.Count(),
		MeanUnits: h.Mean(),
		P50Units:  h.Quantile(0.50),
		P95Units:  h.Quantile(0.95),
		P99Units:  h.Quantile(0.99),
	}
}

// AdaptMetricsSnapshot is the continuous-adaptation section of /metrics:
// control-loop progress plus the modeled-cost distribution of served
// queries.
type AdaptMetricsSnapshot struct {
	Rounds        int64 `json:"rounds"`
	Applied       int64 `json:"applied"`
	Moves         int64 `json:"moves"`
	SkippedStale  int64 `json:"skipped_stale"`
	SkippedNoGain int64 `json:"skipped_no_gain"`
	Recalibrated  int64 `json:"recalibrated"`
	// CostBefore/CostAfter are the modeled-cost trend of the latest
	// planning round (full-workload evaluations).
	CostBefore float64 `json:"cost_before"`
	CostAfter  float64 `json:"cost_after"`
	// ModelRandom is the live random-access cost (scan-byte units),
	// moving when recalibration is enabled.
	ModelRandom float64 `json:"model_random"`
	// QueryCost is the per-query modeled-cost distribution.
	QueryCost *CostHistogramSnapshot `json:"query_cost,omitempty"`
}

// adaptSnapshot assembles the adapt /metrics section for a local index.
func (s *Server) adaptSnapshot(ix *adindex.Index) *AdaptMetricsSnapshot {
	st := ix.AdaptStatus()
	return &AdaptMetricsSnapshot{
		Rounds:        st.Rounds,
		Applied:       st.Applied,
		Moves:         st.Moves,
		SkippedStale:  st.SkippedStale,
		SkippedNoGain: st.SkippedNoGain,
		Recalibrated:  st.Recalibrated,
		CostBefore:    st.LastCostBefore,
		CostAfter:     st.LastCostAfter,
		ModelRandom:   st.ModelRandom,
		QueryCost:     costSnapshot(s.metrics.Cost),
	}
}
