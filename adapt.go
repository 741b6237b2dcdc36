package adindex

import "time"

// StartAdapt starts periodic re-optimization: every interval, a tick runs
// Optimize's planned re-mapping, unless no query was observed since the
// previous tick. A tick installs nothing unless the solved mapping lowers
// modeled cost by at least minRemapGain of the live mapping's (a pending
// overlay, which Optimize folds whatever the gain, is left to its own
// fold), and then leaves the published snapshot, the epoch and the
// durable directory as they were. StartAdapt on a running loop does nothing; StopAdapt or Close
// stops it.
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
// mapping: nothing when no query was observed since the previous tick,
// else the planned re-mapping on gain alone.
func (ix *Index) adaptTick() (installed bool, err error) {
	seen := ix.observed.Occurrences()
	if ix.adaptSeen.Swap(seen) == seen {
		return false, nil
	}
	rep, err := ix.remap()
	return rep.Installed, err
}
