package router

import (
	"fmt"

	"nifdy/internal/packet"
	"nifdy/internal/sim"
)

// Auditor is a read-only visitor over a Router's internal state, used by the
// invariant monitors (internal/check) to take a global census of flits and
// credits. Audit must only be called while the router is quiescent — e.g.
// from an engine step hook, before any shard ticks. Nil callbacks are
// skipped.
type Auditor struct {
	// InVC is called once per (input port, global VC) with a connected
	// channel: the channel whose flits fill this buffer, the current
	// occupancy, and the capacity (the credit grant the upstream holds).
	InVC func(port, vc int, ch *Channel, occupancy, capacity int)
	// BufFlit is called for every buffered flit, oldest first, after the
	// InVC call for its (port, vc).
	BufFlit func(port, vc int, f packet.Flit)
	// OutVC is called once per (output port, global VC) with a connected
	// channel: the free downstream slots currently held and the initial
	// grant.
	OutVC func(port, vc int, ch *Channel, credits, initial int)
	// PFCTx is called once per (output port, global VC) when PFC is enabled:
	// the transmitter-side pause state for the VC (paused, and the cycle the
	// pause frame was drained). ch is the channel the pause governs.
	PFCTx func(port, vc int, ch *Channel, paused bool, since sim.Cycle)
	// PFCRx is called once per (input port, global VC) when PFC is enabled:
	// whether this receiver currently holds the VC paused (pause issued,
	// resume not yet sent).
	PFCRx func(port, vc int, ch *Channel, active bool)
}

// Audit walks the router's input buffers and output credit counters, after
// checking the router's derived state against what it summarizes (every
// invariant-monitor run thereby polices the arrival board, the request mask
// and the free board).
func (r *Router) Audit(a Auditor) {
	r.checkCaches()
	for i := range r.in {
		ip := &r.in[i]
		if ip.ch == nil {
			continue
		}
		for v := range ip.vcs {
			vs := &ip.vcs[v]
			if a.InVC != nil {
				a.InVC(i, v, ip.ch, vs.n, r.cfg.BufFlits)
			}
			if a.BufFlit != nil {
				for k := 0; k < vs.n; k++ {
					a.BufFlit(i, v, *vs.at(k))
				}
			}
			if r.pfcOn && a.PFCRx != nil {
				a.PFCRx(i, v, ip.ch, ip.pfcActive[v])
			}
		}
	}
	for o := range r.out {
		op := &r.out[o]
		if op.ch == nil {
			continue
		}
		for g := range op.credits {
			if a.OutVC != nil {
				a.OutVC(o, g, op.ch, op.credits[g], op.initial)
			}
			if r.pfcOn && a.PFCTx != nil {
				a.PFCTx(o, g, op.ch, op.paused[g], op.pausedAt[g])
			}
		}
	}
}

// checkCaches panics unless reqMask has exactly the bits of the output ports
// with requesters, every connected output's free-board word is its flit
// link's FreeAt, and every word of the arrival board is the arrival cycle of
// its wire's oldest in-flight event (sim.Never for an empty or unconnected
// wire).
func (r *Router) checkCaches() {
	for o := range r.out {
		if set, want := r.reqMask>>uint(o)&1 != 0, len(r.out[o].reqs) > 0; set != want {
			panic(fmt.Sprintf("router %d: reqMask bit %d is %v with %d requesters", r.cfg.ID, o, set, len(r.out[o].reqs)))
		}
		if ch := r.out[o].ch; ch != nil && r.free[o] != ch.Flits.FreeAt() {
			panic(fmt.Sprintf("router %d: free board word %d is %d, its link is free at %d", r.cfg.ID, o, r.free[o], ch.Flits.FreeAt()))
		}
	}
	for i, got := range r.arrive {
		want := sim.Never // unconnected, or nothing in flight (the common case)
		if i < len(r.in) {
			if ch := r.in[i].ch; ch != nil && ch.Flits.Pending() > 0 {
				want = firstAt(ch.Flits.ForEach)
			}
		} else if ch := r.out[i-len(r.in)].ch; ch != nil && ch.Credits.Pending() > 0 {
			want = firstAt(ch.Credits.ForEach)
		}
		if got != want {
			panic(fmt.Sprintf("router %d: arrival board word %d is %d, its wire's next arrival is %d", r.cfg.ID, i, got, want))
		}
	}
}

// firstAt returns the arrival cycle of the first event forEach visits.
func firstAt[T any](forEach func(func(sim.Cycle, T))) sim.Cycle {
	first := sim.Never
	forEach(func(at sim.Cycle, _ T) {
		if first == sim.Never {
			first = at
		}
	})
	return first
}

// IfaceAuditor is the Iface counterpart of Auditor: a read-only visitor over
// an interface's serialization slots, ejection buffers, and injection
// credits. Nil callbacks are skipped.
type IfaceAuditor struct {
	// Sending is called for each class with a packet mid-serialization,
	// with the count of flits already pushed into the fabric.
	Sending func(c packet.Class, p *packet.Packet, sentFlits int)
	// EjectVC is called once per (global VC, connected ejection channel)
	// with occupancy and capacity.
	EjectVC func(vc int, ch *Channel, occupancy, capacity int)
	// EjectFlit is called for every buffered ejection flit, oldest first,
	// after the EjectVC call for its VC.
	EjectFlit func(vc int, f packet.Flit)
	// OutVC is called once per (global VC, connected injection channel)
	// with the credits currently held and the initial grant.
	OutVC func(vc int, ch *Channel, credits, initial int)
	// PFCTx is called once per (global VC, connected injection channel) when
	// PFC is enabled: the injection side's pause state for the VC.
	PFCTx func(vc int, ch *Channel, paused bool, since sim.Cycle)
	// PFCRx is called once per (global VC, connected ejection channel) when
	// PFC is enabled: whether the ejection side currently holds the VC
	// paused.
	PFCRx func(vc int, ch *Channel, active bool)
}

// Audit walks the iface's slots, ejection buffers, and credit counters. Like
// Router.Audit it must only run while the fabric is quiescent.
func (f *Iface) Audit(a IfaceAuditor) {
	for c := range f.slots {
		s := &f.slots[c]
		if s.p != nil && a.Sending != nil {
			a.Sending(packet.Class(c), s.p, s.next)
		}
	}
	for g := range f.eject {
		ch := f.inCh[g/f.cfg.VCs]
		if ch == nil {
			continue
		}
		if a.EjectVC != nil {
			a.EjectVC(g, ch, len(f.eject[g].q), f.cfg.BufFlits)
		}
		if a.EjectFlit != nil {
			for _, fl := range f.eject[g].q {
				a.EjectFlit(g, fl)
			}
		}
		if f.pfcOn && a.PFCRx != nil {
			a.PFCRx(g, ch, f.pfcActive[g])
		}
	}
	for g := range f.credits {
		ch := f.outCh[g/f.cfg.VCs]
		if ch == nil {
			continue
		}
		if a.OutVC != nil {
			a.OutVC(g, ch, f.credits[g], f.initCred[g])
		}
		if f.pfcOn && a.PFCTx != nil {
			a.PFCTx(g, ch, f.pfcPaused[g], f.pfcPausedAt[g])
		}
	}
}

// FlitCounters reports lifetime flit counts: flits pushed into the fabric,
// flits extracted by packet delivery, and flits extracted by the loss model.
// injected - delivered - dropped equals the flits currently in the fabric on
// this iface's account, which is what the global conservation monitor sums.
func (f *Iface) FlitCounters() (injected, delivered, dropped int64) {
	return f.injectedFlits, f.deliveredFlits, f.droppedFlits
}
