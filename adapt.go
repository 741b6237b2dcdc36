package adindex

import "time"

// minTickGain is the smallest modeled-cost reduction, as a fraction of the
// live mapping's cost, for which an adaptation tick installs a mapping: a
// smaller gain is noise and not worth a rebuild.
const minTickGain = 1e-4

// StartAdapt starts periodic re-optimization: every interval, a tick runs
// the planner of Optimize over the workload sample and installs its mapping
// through the same installer. A tick does nothing when no query was
// observed since the previous tick, and installs nothing unless the solved
// mapping lowers modeled cost by at least minTickGain of the live mapping's.
// A tick that installs nothing leaves the published snapshot, the epoch and
// the durable directory as they were. StartAdapt on a running loop does
// nothing; StopAdapt or Close stops it.
func (ix *Index) StartAdapt(interval time.Duration) {
	ix.adaptMu.Lock()
	defer ix.adaptMu.Unlock()
	if ix.adaptStop != nil {
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	ix.adaptStop, ix.adaptDone = stop, done
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				// A failed rebuild leaves the index as it was; the next tick
				// with traffic plans again.
				ix.adaptTick()
			}
		}
	}()
}

// StopAdapt stops the loop StartAdapt started and returns once a tick in
// flight has finished. Safe without a prior StartAdapt.
func (ix *Index) StopAdapt() {
	ix.adaptMu.Lock()
	stop, done := ix.adaptStop, ix.adaptDone
	ix.adaptStop, ix.adaptDone = nil, nil
	ix.adaptMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// adaptTick is one tick of the loop, reporting whether it installed a
// mapping. It plans against one published snapshot's live corpus, overlay
// included, and folds nothing unless it installs.
func (ix *Index) adaptTick() (installed bool, err error) {
	seen := ix.observed.Occurrences()
	if ix.adaptSeen.Swap(seen) == seen {
		return false, nil
	}
	res, before, _ := ix.plan(ix.snap.Load(), ix.observed.Workload())
	if before-res.ModeledCost < minTickGain*before {
		return false, nil
	}
	if _, err := ix.install(res.Mapping); err != nil {
		return false, err
	}
	return true, nil
}
