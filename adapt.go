package adindex

import (
	"time"

	"adindex/internal/adapt"
	"adindex/internal/core"
	"adindex/internal/corpus"
	"adindex/internal/workload"
)

// Workload is a set of distinct queries with observed frequencies, as
// drained by ExportDelta.
type Workload = workload.Workload

// AdaptOptions configures the continuous adaptation control loop (see
// internal/adapt): the steady-state alternative to periodic full
// Optimize calls. Zero-valued fields take the package defaults.
type AdaptOptions struct {
	// Interval is the background round period (StartAdapt). Default 5s.
	Interval time.Duration
	// TopK bounds how many misplaced word sets one round may move.
	// Default 32; negative means unbounded.
	TopK int
	// Calibrate enables live cost-model recalibration from the per-query
	// attribution recorded by RecordQueryCost.
	Calibrate bool
}

// adaptConfig translates index options into a controller config.
func (ix *Index) adaptConfig() adapt.Config {
	cfg := adapt.Config{
		MaxWords: ix.opts.coreOptions().MaxWords,
		Model:    ix.opts.model(),
	}
	if a := ix.opts.Adapt; a != nil {
		cfg.Interval = a.Interval
		cfg.TopK = a.TopK
		cfg.Calibrate = a.Calibrate
	}
	return cfg
}

// adaptController lazily builds the controller (so indexes that never
// adapt pay nothing).
func (ix *Index) adaptController() *adapt.Controller {
	ix.adaptMu.Lock()
	defer ix.adaptMu.Unlock()
	if ix.adaptCtl == nil {
		ix.adaptCtl = adapt.New(ix.adaptConfig(), adaptTarget{ix})
	}
	return ix.adaptCtl
}

// AdaptEnabled reports whether the index was built with Options.Adapt:
// the owner intends to run the adaptation loop, so serving layers collect
// per-query cost attribution for it.
func (ix *Index) AdaptEnabled() bool { return ix.opts.Adapt != nil }

// AdaptRound runs one synchronous adaptation round: pull the workload
// delta observed since the last round, recalibrate the cost model (if
// enabled), re-solve placement for the most misplaced word sets, and
// apply the moves RCU-style. Queries stay lock-free throughout; the
// apply is skipped (SkippedStale) when a concurrent Optimize or
// ApplyMapping re-mapped the index mid-round.
func (ix *Index) AdaptRound() (adapt.RoundReport, error) {
	return ix.adaptController().RunRound()
}

// StartAdapt launches the background adaptation loop at the configured
// interval. Idempotent.
func (ix *Index) StartAdapt() {
	ix.adaptController().Start()
}

// StopAdapt stops the background loop and waits for it to exit. Safe
// without a prior StartAdapt.
func (ix *Index) StopAdapt() {
	ix.adaptMu.Lock()
	ctl := ix.adaptCtl
	ix.adaptMu.Unlock()
	if ctl != nil {
		ctl.Stop()
	}
}

// AdaptStatus returns control-loop metrics (rounds, applied moves,
// modeled-cost trend, current model).
func (ix *Index) AdaptStatus() adapt.Status {
	return ix.adaptController().Status()
}

// Model returns the index's configured cost model (the prior that
// adaptation's recalibration refines). Serving layers use it to convert
// per-query Counters into modeled cost units.
func (ix *Index) Model() CostModel {
	return ix.opts.model()
}

// RecordQueryCost feeds one query's access counters and wall time into
// the per-query cost attribution used by adaptation's cost-model
// recalibration. Lock-free; call it from serving paths that already
// collect Counters.
func (ix *Index) RecordQueryCost(c *Counters, nanos int64) {
	ix.attr.Record(c, nanos)
}

// AttributionStats returns cumulative per-query cost attribution totals.
func (ix *Index) AttributionStats() core.AttributionStats {
	return ix.attr.Stats()
}

// RemapEpoch counts placement changes (Optimize, ApplyMapping, and
// applied adaptation rounds). Unlike Epoch it ignores Insert/Delete, so
// the adaptation loop can detect that the mapping it planned against was
// replaced without being invalidated by ordinary corpus churn (which
// carries across a re-mapping verbatim).
func (ix *Index) RemapEpoch() uint64 {
	return ix.remapEpoch.Load()
}

// ExportDelta drains and returns the workload observed since the last
// drain, with the drain epoch. The adaptation loop pulls the same delta
// instead of the full sample merge; the method is exported for tests
// that must discard a warm-up phase before the loop's first round.
func (ix *Index) ExportDelta() (*Workload, uint64) {
	return ix.observed.ExportDelta()
}

// ApplyPlacement rebuilds the index under mapping iff the remap epoch
// still equals ifEpoch, reporting whether it applied (see remap: queries
// stay lock-free, mutators only block for the swap). A concurrent
// re-mapping aborts with (false, nil), and so does mutation churn that
// folds the base under both of its two attempts.
func (ix *Index) ApplyPlacement(mapping map[string][]string, ifEpoch uint64) (bool, error) {
	installed, _, _, err := ix.remap(2, &ifEpoch, fixedPlan(mapping))
	return installed != nil, err
}

// adaptTarget adapts *Index to the adapt.Target interface.
type adaptTarget struct{ ix *Index }

func (t adaptTarget) PullDelta() (*Workload, uint64) {
	return t.ix.observed.ExportDelta()
}

func (t adaptTarget) Attribution() core.AttributionStats {
	return t.ix.attr.Stats()
}

// PlacementView reads the remap epoch *before* folding and reading the
// mapping: if a re-mapping lands between the epoch read and the mapping
// read, the eventual ApplyPlacement(ifEpoch) fails closed. The reverse
// order could apply a plan computed on the old mapping under the new
// epoch.
func (t adaptTarget) PlacementView() ([]corpus.Ad, map[string][]string, uint64) {
	epoch := t.ix.remapEpoch.Load()
	base := t.ix.foldedBase()
	return base.Ads(), base.Mapping(), epoch
}

func (t adaptTarget) ApplyPlacement(mapping map[string][]string, ifEpoch uint64) (bool, error) {
	return t.ix.ApplyPlacement(mapping, ifEpoch)
}
