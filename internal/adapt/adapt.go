// Package adapt implements the continuous workload-adaptation control
// loop: the steady-state replacement for stop-the-world re-optimization.
//
// A full Optimize pass merges the entire workload sample, re-solves
// placement for every group, and rebuilds the index — the right tool
// after bulk loads or when the layout has badly rotted, but far too
// heavy to run at the cadence workload drift actually happens. The
// controller here runs small rounds instead. Each round
//
//  1. pulls the per-shard workload *delta* accumulated since the last
//     round (no full sample merge) and folds it into an exponentially
//     decayed picture of recent traffic,
//  2. recalibrates the cost model's random-vs-sequential ratio from live
//     per-query attribution counters (measured nanoseconds regressed
//     against measured accesses),
//  3. re-solves placement incrementally for only the top-k most
//     misplaced word sets under the decayed workload and the
//     recalibrated model (bounded work per round), and
//  4. applies the resulting moves through the index's RCU publish
//     machinery, so queries never block, guarded by a remap epoch that
//     skips the apply when another re-mapping won the race.
//
// Rounds are cheap enough to run every few seconds; drift is tracked as
// it happens rather than repaired in bulk afterwards.
package adapt

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"adindex/internal/core"
	"adindex/internal/corpus"
	"adindex/internal/costmodel"
	"adindex/internal/optimize"
	"adindex/internal/workload"
)

// Target is the surface the controller drives. adindex.Index implements
// it; the interface exists so this package does not import the root
// package (which imports this one).
type Target interface {
	// PullDelta drains the workload observed since the previous pull,
	// returning it with the drain's epoch.
	PullDelta() (*workload.Workload, uint64)
	// Attribution returns cumulative per-query cost attribution totals.
	Attribution() core.AttributionStats
	// PlacementView returns the live corpus, its current word-set →
	// locator mapping, and the remap epoch the pair was read at.
	PlacementView() (ads []corpus.Ad, mapping map[string][]string, epoch uint64)
	// ApplyPlacement installs a new mapping if the remap epoch still
	// equals ifEpoch, reporting whether it applied. A false, nil return
	// means the view went stale (another re-mapping intervened) — the
	// round's plan is discarded, never force-applied.
	ApplyPlacement(mapping map[string][]string, ifEpoch uint64) (bool, error)
}

const (
	// minGainFrac skips the apply when the round's modeled-cost
	// improvement is below this fraction of the current modeled cost
	// (avoids churning the index for noise).
	minGainFrac = 1e-4
	// decay is the per-round multiplier on accumulated workload
	// frequencies, blending history with the fresh delta.
	decay = 0.5
)

// Config parameterizes the control loop.
type Config struct {
	// Interval is the period of the background loop started by Start.
	// Default 5s.
	Interval time.Duration
	// TopK bounds how many misplaced word sets one round may re-solve.
	// Default 32; <0 means unbounded (every round is a full re-solve —
	// only sensible in tests).
	TopK int
	// Calibrate enables cost-model recalibration from attribution
	// counters.
	Calibrate bool
	// MaxWords is the locator-length bound (mirrors index Options).
	MaxWords int
	// Model is the starting cost model; recalibration refines it.
	Model costmodel.Model
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 5 * time.Second
	}
	if c.TopK == 0 {
		c.TopK = 32
	}
	if c.Model == (costmodel.Model{}) {
		c.Model = costmodel.Default()
	}
	return c
}

// RoundReport describes one control-loop round.
type RoundReport struct {
	// DeltaQueries is the number of distinct query sets in this round's
	// pulled delta; WorkloadQueries the size of the decayed accumulated
	// workload the round planned against.
	DeltaQueries    int
	WorkloadQueries int
	// Moved is the number of word sets whose locator changed.
	Moved int
	// CostBefore/CostAfter are full modeled-cost evaluations of the
	// mapping before and after the round (equal when nothing applied).
	CostBefore, CostAfter float64
	// Applied reports whether a new mapping was installed. SkippedStale
	// and SkippedNoGain say why not.
	Applied       bool
	SkippedStale  bool
	SkippedNoGain bool
	// Recalibrated reports that this round updated the cost model.
	Recalibrated bool
}

// Status is a point-in-time metrics snapshot of the controller.
type Status struct {
	Rounds        int64
	Applied       int64
	Moves         int64
	SkippedStale  int64
	SkippedNoGain int64
	Recalibrated  int64
	// LastCostBefore/After track the modeled-cost trend of the most
	// recent planning round.
	LastCostBefore, LastCostAfter float64
	// ModelRandom is the current (possibly recalibrated) random-access
	// cost in scan-byte units.
	ModelRandom float64
}

// Controller runs adaptation rounds against a Target. RunRound may be
// called directly (tests, simulation) or periodically via Start/Stop.
// Methods are safe for concurrent use, but rounds themselves serialize
// on an internal mutex.
type Controller struct {
	cfg    Config
	target Target

	mu       sync.Mutex // serializes rounds
	acc      map[string]*accEntry
	cal      costmodel.Calibrator
	model    costmodel.Model
	lastAttr core.AttributionStats

	rounds, applied, moves atomic.Int64
	skippedStale           atomic.Int64
	skippedNoGain          atomic.Int64
	recalibrated           atomic.Int64
	lastCostBefore         atomic.Uint64 // float64 bits
	lastCostAfter          atomic.Uint64
	modelRandom            atomic.Uint64
	stopOnce, startOnce    sync.Once
	stop                   chan struct{}
	done                   chan struct{}
	loopStarted            atomic.Bool
}

// accEntry is one word set's decayed traffic weight.
type accEntry struct {
	words  []string
	weight float64
}

// New builds a controller; zero-valued Config fields take defaults.
func New(cfg Config, target Target) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{
		cfg:    cfg,
		target: target,
		acc:    make(map[string]*accEntry),
		model:  cfg.Model,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	c.modelRandom.Store(math.Float64bits(cfg.Model.RandomCost()))
	return c
}

// Start launches the background loop at cfg.Interval. Safe to call once;
// subsequent calls are no-ops.
func (c *Controller) Start() {
	c.startOnce.Do(func() {
		c.loopStarted.Store(true)
		go func() {
			defer close(c.done)
			t := time.NewTicker(c.cfg.Interval)
			defer t.Stop()
			for {
				select {
				case <-c.stop:
					return
				case <-t.C:
					// Errors are reflected in Status (rounds advance
					// without applies); the loop never dies on one.
					c.RunRound()
				}
			}
		}()
	})
}

// Stop terminates the background loop and waits for it to exit. Safe to
// call multiple times and without a prior Start.
func (c *Controller) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	if c.loopStarted.Load() {
		<-c.done
	}
}

// Model returns the current (possibly recalibrated) cost model.
func (c *Controller) Model() costmodel.Model {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.model
}

// RunRound executes one adaptation round synchronously.
func (c *Controller) RunRound() (RoundReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rounds.Add(1)

	var rep RoundReport

	// 1. Pull the workload delta and fold it into the decayed picture.
	delta, _ := c.target.PullDelta()
	if delta == nil {
		delta = &workload.Workload{}
	}
	rep.DeltaQueries = len(delta.Queries)
	for k, e := range c.acc {
		e.weight *= decay
		if e.weight < 0.5 {
			delete(c.acc, k)
		}
	}
	for i := range delta.Queries {
		q := &delta.Queries[i]
		k := q.Key()
		if e, ok := c.acc[k]; ok {
			e.weight += float64(q.Freq)
		} else {
			c.acc[k] = &accEntry{words: q.Words, weight: float64(q.Freq)}
		}
	}

	// 2. Recalibrate the cost model from the attribution window since the
	// previous round.
	if c.cfg.Calibrate {
		attr := c.target.Attribution()
		window := attr.Sub(c.lastAttr)
		c.lastAttr = attr
		if window.Queries > 0 {
			c.cal.Add(window.Sample())
		}
		if m, ok := c.cal.Fit(c.model); ok {
			rep.Recalibrated = c.model != m
			c.model = m
			if rep.Recalibrated {
				c.recalibrated.Add(1)
				c.modelRandom.Store(math.Float64bits(m.RandomCost()))
			}
		}
	}

	wl := c.workloadLocked()
	rep.WorkloadQueries = len(wl.Queries)
	if len(wl.Queries) == 0 {
		// No traffic evidence at all: nothing to adapt to.
		rep.SkippedNoGain = true
		c.skippedNoGain.Add(1)
		return rep, nil
	}

	// 3. Incremental re-solve of the top-k most misplaced word sets.
	ads, mapping, epoch := c.target.PlacementView()
	gs := optimize.BuildGroups(ads, wl)
	p, err := optimize.BuildPlacement(gs, optimize.Options{MaxWords: c.cfg.MaxWords, Model: c.model})
	if err != nil {
		return rep, err
	}
	k := c.cfg.TopK
	if k < 0 {
		k = 0 // unbounded for the placement step
	}
	next, moved, costBefore, costAfter := p.Step(mapping, k)
	rep.Moved = moved
	rep.CostBefore, rep.CostAfter = costBefore, costAfter
	c.lastCostBefore.Store(math.Float64bits(costBefore))
	c.lastCostAfter.Store(math.Float64bits(costAfter))
	if moved == 0 || costBefore-costAfter < minGainFrac*costBefore {
		rep.SkippedNoGain = true
		c.skippedNoGain.Add(1)
		return rep, nil
	}

	// 4. Apply through the RCU machinery, epoch-guarded.
	applied, err := c.target.ApplyPlacement(next, epoch)
	if err != nil {
		return rep, err
	}
	if !applied {
		rep.SkippedStale = true
		c.skippedStale.Add(1)
		rep.CostAfter = rep.CostBefore
		return rep, nil
	}
	rep.Applied = true
	c.applied.Add(1)
	c.moves.Add(int64(moved))
	return rep, nil
}

// workloadLocked materializes the decayed accumulator as a workload.
func (c *Controller) workloadLocked() *workload.Workload {
	wl := &workload.Workload{Queries: make([]workload.Query, 0, len(c.acc))}
	for _, e := range c.acc {
		f := int(e.weight + 0.5)
		if f < 1 {
			continue
		}
		wl.Queries = append(wl.Queries, workload.Query{Words: e.words, Freq: f})
	}
	return wl
}

// Status returns current controller metrics.
func (c *Controller) Status() Status {
	return Status{
		Rounds:         c.rounds.Load(),
		Applied:        c.applied.Load(),
		Moves:          c.moves.Load(),
		SkippedStale:   c.skippedStale.Load(),
		SkippedNoGain:  c.skippedNoGain.Load(),
		Recalibrated:   c.recalibrated.Load(),
		LastCostBefore: math.Float64frombits(c.lastCostBefore.Load()),
		LastCostAfter:  math.Float64frombits(c.lastCostAfter.Load()),
		ModelRandom:    math.Float64frombits(c.modelRandom.Load()),
	}
}
