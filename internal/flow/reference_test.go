package flow

import "nifdy/internal/sim"

// refSolver is the solver the event-driven one replaced, kept as the oracle
// the differential test compares it against: every step advances every
// active flow, every solve that moves a global share re-rates every flow one
// by one, and the next event is a scan of all drain bounds. It is the model's
// definition written the obvious way — O(active flows) per step — and it
// shares with the production solver only the event plumbing (retire, land,
// promote, activate, marking) and the storage: each flow record's rem and
// rate hold its state as of lastRun, and the wheel's key stands in for a
// drain-cycle array
// (filed, never expired: the advance loop decides what drained). No flow ever
// joins a share class or a per-k list under it.
type refSolver struct {
	f                  *Fabric
	lastCross, lastFab int64
	needFull           bool
}

func newRefSolver(cfg Config) *refSolver {
	return &refSolver{f: New(cfg), needFull: true}
}

// register installs the reference solver as the fabric's step hook.
func (r *refSolver) register(e *sim.Engine) {
	r.f.bind(e, r.step)
}

// active calls fn for every live flow id.
func (r *refSolver) active(fn func(id int32)) {
	for id := range r.f.flows {
		if r.f.flows[id].pkt != nil {
			fn(int32(id))
		}
	}
}

func (r *refSolver) step(now sim.Cycle) {
	f := r.f
	if now < f.nextWork && len(f.staged) == 0 && len(f.dirty) == 0 {
		return
	}
	changed := false

	// 1. Advance every active flow to the present (piecewise-linear drain),
	// collecting the ones whose remainder hits zero.
	f.drained = f.drained[:0]
	if dt := now - f.lastRun; dt > 0 {
		r.active(func(id int32) {
			fl := &f.flows[id]
			if fl.rate > 0 {
				fl.rem -= int64(fl.rate) * int64(dt)
				if fl.rem <= 0 {
					fl.rem = 0
					f.drained = append(f.drained, drainedFlow{fl.seq, id})
				}
			}
		})
	}
	f.lastRun = now

	// 2. Retire drained flows in admission order.
	sortDrained(f.drained)
	for _, d := range f.drained {
		f.drains.Unlink(d.id)
		f.retire(now, d.id)
		changed = true
	}

	// 3. Land pipe arrivals due now.
	for c := range f.pipes {
		for f.pipes[c].Len() > 0 {
			head, _ := f.pipes[c].Front()
			if head.at > now {
				break
			}
			e, _ := f.pipes[c].PopFront()
			if f.land(now, e.p) {
				changed = true
			}
		}
	}

	// 4. Promote parked packets where arrival buffers freed space.
	f.forEachDirty(func(nd int32) {
		if f.promote(now, nd) {
			changed = true
		}
	})

	// 5. Activate staged sends.
	f.forEachStaged(func(st stagedSend) {
		f.activate(now, st)
		changed = true
	})

	// 6. Re-solve rates when the flow set or a stall changed, then find the
	// next event.
	if changed {
		r.solveRates(now)
	}
	r.recomputeNext()
}

// solveRates recomputes rates: every active flow's when a global share
// moved, the marked flows' otherwise.
func (r *refSolver) solveRates(now sim.Cycle) {
	f := r.f
	stride := f.cfg.SolveStride
	var crossShare int64
	if f.bisCap > 0 && f.nCross > 0 {
		f.crossDiv = stableDiv(f.crossDiv, int64(f.nCross), stride)
		crossShare = f.bisCap / f.crossDiv
		if crossShare < 1 {
			crossShare = 1
		}
	}
	var fabShare int64
	if f.fabCap > 0 && f.nActive > 0 {
		f.fabDiv = stableDiv(f.fabDiv, int64(f.nActive), stride)
		fabShare = f.fabCap / f.fabDiv
		if fabShare < 1 {
			fabShare = 1
		}
	}
	if r.needFull || crossShare != r.lastCross || fabShare != r.lastFab {
		r.needFull = false
		r.lastCross, r.lastFab = crossShare, fabShare
		for _, id := range f.rateDirty {
			f.flows[id].mark = false
		}
		f.rateDirty = f.rateDirty[:0]
		r.active(func(id int32) {
			r.rateOne(now, id, crossShare, fabShare, stride)
		})
		return
	}
	for _, id := range f.rateDirty {
		f.flows[id].mark = false
		if f.flows[id].pkt != nil { // skip ids retired after marking
			r.rateOne(now, id, crossShare, fabShare, stride)
		}
	}
	f.rateDirty = f.rateDirty[:0]
}

// rateOne recomputes one flow's rate and drain bound.
func (r *refSolver) rateOne(now sim.Cycle, id int32, crossShare, fabShare int64, stride int) {
	f := r.f
	fl := &f.flows[id]
	src, dst := srcOf(id), fl.dst
	var rate int64
	if f.ports[dst].parkedFlits[fl.pkt.Class] >= int32(f.cfg.DstCapFlits) {
		rate = 0 // stalled destination
	} else {
		rate = f.shareOf(int64(f.ports[src].nSrc))
		if s := f.shareOf(coarsen(int64(f.ports[dst].nDst), stride)); s < rate {
			rate = s
		}
		if crossShare > 0 && f.crosses(src, dst) && crossShare < rate {
			rate = crossShare
		}
		if fabShare > 0 && fabShare < rate {
			rate = fabShare
		}
		if rate < 1 {
			rate = 1
		}
	}
	if rate == int64(fl.rate) {
		return // unchanged rate ⇒ unchanged drain bound
	}
	fl.rate = int32(rate)
	if f.drains.Key(id) != 0 {
		f.drains.Unlink(id)
	}
	if rate == 0 {
		return // drain bound Never
	}
	at := now + sim.Cycle((fl.rem+rate-1)/rate)
	if at <= now {
		at = now + 1
	}
	f.drains.File(id, at)
}

// recomputeNext finds the earliest pending event by scanning every flow.
func (r *refSolver) recomputeNext() {
	f := r.f
	next := sim.Never
	for c := range f.pipes {
		if head, ok := f.pipes[c].Front(); ok && head.at < next {
			next = head.at
		}
	}
	r.active(func(id int32) {
		if at := f.drains.Key(id); at != 0 && at < next {
			next = at
		}
	})
	if s := sim.Cycle(f.cfg.SolveStride); s > 1 && next != sim.Never {
		next = (next + s - 1) / s * s
	}
	f.nextWork = next
	f.clock.Sleep(next)
}
