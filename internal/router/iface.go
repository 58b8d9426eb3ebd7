package router

import (
	"fmt"

	"nifdy/internal/packet"
	"nifdy/internal/rng"
	"nifdy/internal/sim"
)

// IfaceConfig parameterizes a node's network interface port.
type IfaceConfig struct {
	// Node is the node number (diagnostics).
	Node int
	// VCs per class; must match the attached router.
	VCs int
	// BufFlits is the ejection buffer depth per VC. It must be at least the
	// largest packet size, since a packet is handed to the NIC only when
	// fully reassembled.
	BufFlits int
	// DropProb, when positive, drops each fully arrived packet with this
	// probability — the lossy-network model for the §6.2 retransmission
	// extension. Requires RNG.
	DropProb float64
	// RNG drives loss decisions.
	RNG *rng.Source
	// Fabric configures the modern-fabric baselines: PFC pause/resume on the
	// access channels, and the lossy-wire fault model (drop/corrupt in
	// flight) that exercises the §6 retransmission path. ECN marking happens
	// in the routers and is ignored here.
	Fabric FabricConfig
	// Mutate injects substrate faults for monitor validation (test-only).
	Mutate IfaceMutations
}

// IfaceMutations are deliberate, one-shot substrate faults used by the
// internal/check mutation tests to prove the conservation monitors trip.
// They must never be set outside tests.
type IfaceMutations struct {
	// DropArrival silently discards the first flit that arrives on an
	// ejection channel — no buffer entry, no credit — violating flit (and
	// credit) conservation.
	DropArrival bool
	// LeakCredit withholds one credit on the first packet extraction,
	// violating credit conservation.
	LeakCredit bool
	// IgnoreCredit sends one flit past an exhausted credit counter,
	// driving it negative — the overcommit the VC-capacity monitor must
	// catch before the downstream buffer overflows.
	IgnoreCredit bool
	// PFCIgnorePause transmits one flit on a paused VC (credits permitting),
	// violating the PFC no-transmit-while-paused invariant.
	PFCIgnorePause bool
	// PFCDropResume clears the ejection side's pause state once without
	// sending the resume frame, leaving the upstream transmitter paused
	// forever — the pause/resume pairing violation.
	PFCDropResume bool
}

type ifSlot struct {
	p    *packet.Packet
	next int // next flit index to send
	vc   int // allocated global vc at the router's local input port, -1 before head
}

type ejectVC struct {
	q []packet.Flit
}

// Iface is the boundary between a NIC and the network fabric: it serializes
// outgoing packets flit-by-flit into the local router port (one packet per
// class at a time, classes interleaved at flit granularity like any VC mux)
// and reassembles incoming flits into whole packets that the NIC pulls on
// its own schedule. Unpulled packets hold their buffer slots and therefore
// exert backpressure into the fabric — exactly the end-point congestion
// mechanism the paper studies.
//
// Most fabrics share one physical channel pair between the two logical
// networks (demand multiplexing); the CM-5 fat tree attaches one channel
// pair per class (strict time multiplexing), via ConnectOutClass and
// ConnectInClass.
type Iface struct {
	cfg IfaceConfig

	outCh    [packet.NumClasses]*Channel
	credits  []int
	initCred []int // initial grant per global vc (audit reference)
	slots    [packet.NumClasses]ifSlot
	clsRR    int

	inCh    [packet.NumClasses]*Channel
	eject   []ejectVC
	ejected int // flits buffered on the eject side
	scanRR  int

	injectedPkts, deliveredPkts, droppedPkts int64
	injectedFlits                            int64
	deliveredFlits, droppedFlits             int64

	// PFC state. The injection side mirrors the pause frames the local
	// router's input port sent (pfcPaused, with the drain cycle in
	// pfcPausedAt); the ejection side tracks the pauses it has issued
	// upstream (pfcActive), with thresholds resolved against BufFlits.
	pfcOn           bool
	pfcXOff, pfcXOn int
	pfcPaused       []bool
	pfcPausedAt     []sim.Cycle
	pfcActive       []bool

	// Lossy-wire state: the per-node fault stream and the set of packets
	// condemned in flight, mapped to the flits not yet accounted (extracted,
	// discarded on arrival, or dropped at the wire). Membership lookups only;
	// the map is never iterated, and entries die with their last flit.
	wireRNG  *rng.Source
	poisoned map[*packet.Packet]int

	mutDropDone, mutLeakDone, mutCreditDone bool
	mutPFCPauseDone, mutPFCResumeDone       bool

	// act is the quiescence latch shared by the iface and the NIC that
	// ticks it: flit arrivals on any ejection channel wake it.
	act sim.Activity
}

// NewIface returns an Iface for cfg.
func NewIface(cfg IfaceConfig) *Iface {
	if cfg.VCs < 1 {
		cfg.VCs = 1
	}
	if cfg.BufFlits < 1 {
		cfg.BufFlits = 1
	}
	f := &Iface{cfg: cfg}
	nvc := packet.NumClasses * cfg.VCs
	f.eject = make([]ejectVC, nvc)
	for i := range f.eject {
		// Full depth up front: the credit loop bounds each queue at BufFlits,
		// so this buffer is reused forever (extract keeps the backing array).
		f.eject[i].q = make([]packet.Flit, 0, cfg.BufFlits)
	}
	f.credits = make([]int, nvc)
	f.initCred = make([]int, nvc)
	for i := range f.slots {
		f.slots[i].vc = -1
	}
	if cfg.Fabric.PFC.Enable {
		f.pfcOn = true
		// The ejection side is packet-granular: extract removes whole packets,
		// so a pause issued while the head packet is still arriving would
		// block that packet's own tail — deadlock. Worms arrive contiguously
		// per VC, so occupancy == capacity implies the head packet is
		// complete and extractable; the ejection buffer therefore pauses only
		// when full, ignoring the (router-oriented) configured thresholds.
		f.pfcXOff = cfg.BufFlits
		f.pfcXOn = cfg.BufFlits - 1
		f.pfcPaused = make([]bool, nvc)
		f.pfcPausedAt = make([]sim.Cycle, nvc)
		f.pfcActive = make([]bool, nvc)
	}
	if cfg.Fabric.Lossy() {
		// One fault stream per node, salted away from every other consumer of
		// the seed; decisions are drawn at the access link's single writer, so
		// they are identical for any shard count.
		f.wireRNG = rng.NewStream(cfg.Fabric.Seed^0x77697265, uint64(cfg.Node))
		f.poisoned = make(map[*packet.Packet]int)
	}
	return f
}

// ConnectOut attaches ch as the shared injection channel for all classes.
// routerDepth is the per-VC buffer depth of the router's local input port.
func (f *Iface) ConnectOut(ch *Channel, routerDepth int) {
	for c := 0; c < packet.NumClasses; c++ {
		f.ConnectOutClass(packet.Class(c), ch, routerDepth)
	}
}

// ConnectOutClass attaches ch as the injection channel for one class only.
// Credit returns on ch wake the owning NIC: a unit mid-serialization may be
// blocked solely on router buffer credits.
func (f *Iface) ConnectOutClass(c packet.Class, ch *Channel, routerDepth int) {
	f.outCh[c] = ch
	ch.Credits.Observe(&f.act)
	base := int(c) * f.cfg.VCs
	for v := 0; v < f.cfg.VCs; v++ {
		f.credits[base+v] = routerDepth
		f.initCred[base+v] = routerDepth
	}
}

// ConnectIn attaches ch as the shared ejection channel for all classes.
func (f *Iface) ConnectIn(ch *Channel) {
	for c := 0; c < packet.NumClasses; c++ {
		f.ConnectInClass(packet.Class(c), ch)
	}
}

// ConnectInClass attaches ch as the ejection channel for one class only.
// Arrivals on ch wake the owning NIC. In lossy mode the iface also installs
// the wire-fault hook on ch: drops are decided on the writer's (the local
// router's) tick, and the compensating accounting runs here, on the same
// shard — access channels never cross shards.
func (f *Iface) ConnectInClass(c packet.Class, ch *Channel) {
	f.inCh[c] = ch
	ch.Flits.Observe(&f.act)
	if f.wireRNG != nil {
		ch.Flits.SetFault(func(now sim.Cycle, fl packet.Flit) bool {
			return f.wireFault(now, ch, fl)
		})
	}
}

// Activity returns the quiescence latch shared by the iface and its NIC.
func (f *Iface) Activity() *sim.Activity { return &f.act }

// NextArrivalAt reports the earliest cycle at which a flit can arrive on any
// ejection channel, or sim.Never when none is in flight.
func (f *Iface) NextArrivalAt() sim.Cycle {
	next := sim.Never
	for c := 0; c < packet.NumClasses; c++ {
		ch := f.inCh[c]
		if ch == nil || (c > 0 && ch == f.inCh[c-1]) {
			continue
		}
		if at := ch.Flits.NextAt(); at < next {
			next = at
		}
	}
	return next
}

// BlockedBound reports the time a NIC that made no progress this tick may
// sleep until: the earliest flit arrival in flight, the earliest credit
// return in flight (its wake edge fired while the unit was still awake, so
// only the wire's content shows it now), or the cycle a busy serialization
// slot's occupied output link goes free. Credits and flits sent after the
// unit falls asleep re-arm it through the wire observers.
func (f *Iface) BlockedBound(now sim.Cycle) sim.Cycle {
	next := f.NextArrivalAt()
	for c := 0; c < packet.NumClasses; c++ {
		ch := f.outCh[c]
		if ch == nil {
			continue // scanning a shared channel twice just repeats the min
		}
		if at := ch.Credits.NextAt(); at < next {
			next = at
		}
		if f.slots[c].p == nil {
			continue
		}
		if at := ch.Flits.FreeAt(); at > now && at < next {
			next = at
		}
	}
	return next
}

// Quiet reports whether ticking the iface is a no-op absent new arrivals:
// nothing mid-serialization on the injection side and nothing buffered on
// the ejection side. Credit returns may still be in flight; they are
// drained lazily on the next wake, before any send decision reads them.
func (f *Iface) Quiet() bool {
	for c := range f.slots {
		if f.slots[c].p != nil {
			return false
		}
	}
	return f.ejected == 0
}

// BufFlits reports the ejection buffer depth per VC (the value the router's
// local output port must be granted as credit).
func (f *Iface) BufFlits() int { return f.cfg.BufFlits }

// CanAccept reports whether a new outgoing packet of the given class can be
// started this cycle.
func (f *Iface) CanAccept(c packet.Class) bool { return f.slots[c].p == nil }

// StartSend begins serializing p into the network. The caller must have
// checked CanAccept for p's class.
func (f *Iface) StartSend(now sim.Cycle, p *packet.Packet) {
	s := &f.slots[p.Class]
	if s.p != nil {
		panic(fmt.Sprintf("iface %d: StartSend while class %v busy", f.cfg.Node, p.Class))
	}
	s.p = p
	s.next = 0
	s.vc = -1
	_ = now
}

// Sending reports the packet currently being serialized for class c, if any.
func (f *Iface) Sending(c packet.Class) *packet.Packet { return f.slots[c].p }

// Tick implements sim.Ticker for an iface driven standalone (tests).
func (f *Iface) Tick(now sim.Cycle) { f.Pump(now) }

// Pump drains credits and arrivals, applies loss, and pushes flits onto the
// local channel(s) — one flit per physical channel per cycle. It reports
// whether any of that changed state (a pump that drained and sent nothing is
// a no-op the scheduler may elide).
func (f *Iface) Pump(now sim.Cycle) bool {
	progress := f.drainCredits(now)
	if f.drainArrivals(now) {
		progress = true
	}
	if f.sendFlits(now) {
		progress = true
	}
	return progress
}

func (f *Iface) drainCredits(now sim.Cycle) bool {
	progress := false
	for c := 0; c < packet.NumClasses; c++ {
		ch := f.outCh[c]
		if ch == nil || (c > 0 && ch == f.outCh[c-1]) {
			continue // shared channel already drained
		}
		for ch.Credits.Ready(now) {
			cr, _ := ch.Credits.Recv(now)
			switch cr.Kind {
			case PFCPause:
				f.pfcPaused[cr.VC] = true
				f.pfcPausedAt[cr.VC] = now
			case PFCResume:
				f.pfcPaused[cr.VC] = false
			default:
				f.credits[cr.VC]++
			}
			progress = true
		}
	}
	return progress
}

//lint:allow(hotalloc) eject-VC growth is bounded by BufFlits (overflow panics), so capacity is reached during warm-up
func (f *Iface) drainArrivals(now sim.Cycle) bool {
	progress := false
	for c := 0; c < packet.NumClasses; c++ {
		ch := f.inCh[c]
		if ch == nil || (c > 0 && ch == f.inCh[c-1]) {
			continue
		}
		for ch.Flits.Ready(now) {
			fl, _ := ch.Flits.Recv(now)
			progress = true
			if f.poisoned != nil {
				if rem, ok := f.poisoned[fl.Pkt]; ok {
					// The packet was condemned in flight (a sibling flit was
					// dropped, or this one corrupted): discard without
					// buffering, but return the credit — the slot it charged
					// is free again.
					ch.Credits.Send(now, Credit{VC: fl.VC})
					f.droppedFlits++
					if rem <= 1 {
						delete(f.poisoned, fl.Pkt)
					} else {
						f.poisoned[fl.Pkt] = rem - 1
					}
					continue
				}
			}
			if f.cfg.Mutate.DropArrival && !f.mutDropDone {
				// Injected fault: the flit vanishes without a buffer slot
				// or credit, so conservation monitors must trip.
				f.mutDropDone = true
				continue
			}
			vc := &f.eject[fl.VC]
			if len(vc.q) >= f.cfg.BufFlits {
				panic(fmt.Sprintf("iface %d: eject vc %d overflow", f.cfg.Node, fl.VC))
			}
			vc.q = append(vc.q, fl)
			f.ejected++
			if f.pfcOn && !f.pfcActive[fl.VC] && len(vc.q) >= f.pfcXOff {
				f.pfcActive[fl.VC] = true
				ch.Credits.Send(now, Credit{VC: fl.VC, Kind: PFCPause})
			}
			if fl.Tail() && f.cfg.DropProb > 0 && f.cfg.RNG != nil && f.cfg.RNG.Bool(f.cfg.DropProb) {
				removed := f.extract(now, fl.VC, fl.Pkt)
				f.droppedPkts++
				f.droppedFlits += int64(removed)
			}
		}
	}
	return progress
}

// extract removes all flits of p from eject vc g, returns their credits, and
// reports how many flits it removed.
//
//lint:allow(hotalloc) filter-in-place append into the same backing array never exceeds capacity
func (f *Iface) extract(now sim.Cycle, g int, p *packet.Packet) int {
	vc := &f.eject[g]
	kept := vc.q[:0]
	removed := 0
	for _, fl := range vc.q {
		if fl.Pkt == p {
			removed++
			continue
		}
		kept = append(kept, fl)
	}
	for i := len(kept); i < len(vc.q); i++ {
		vc.q[i] = packet.Flit{}
	}
	vc.q = kept
	f.ejected -= removed
	ch := f.inCh[g/f.cfg.VCs]
	credits := removed
	if f.cfg.Mutate.LeakCredit && !f.mutLeakDone && credits > 0 {
		// Injected fault: one buffer slot's credit never returns.
		f.mutLeakDone = true
		credits--
	}
	for i := 0; i < credits; i++ {
		ch.Credits.Send(now, Credit{VC: g})
	}
	if f.pfcOn && f.pfcActive[g] && len(vc.q) <= f.pfcXOn {
		f.pfcActive[g] = false
		if f.cfg.Mutate.PFCDropResume && !f.mutPFCResumeDone {
			// Injected fault: pause state cleared but the resume frame is
			// never sent — the upstream VC stays paused forever.
			f.mutPFCResumeDone = true
		} else {
			ch.Credits.Send(now, Credit{VC: g, Kind: PFCResume})
		}
	}
	return removed
}

// wireFault is the lossy-wire hook (link.Link.SetFault) for ejection channel
// ch. It runs on the writer's (the local router's) tick, at transmission
// time: returning false drops the flit in flight. A drop or corruption
// condemns the whole packet — wormhole flits are useless without their
// siblings — via the poison set, and every condemned flit is compensated
// (credit returned, loss counted) exactly once, so the conservation monitors
// hold at every audit instant.
func (f *Iface) wireFault(now sim.Cycle, ch *Channel, fl packet.Flit) bool {
	drop := f.cfg.Fabric.WireDrop > 0 && f.wireRNG.Bool(f.cfg.Fabric.WireDrop)
	corrupt := !drop && f.cfg.Fabric.WireCorrupt > 0 && f.wireRNG.Bool(f.cfg.Fabric.WireCorrupt)
	if !drop && !corrupt {
		return true
	}
	f.poison(now, ch, fl, drop)
	return !drop
}

// poison condemns fl's packet: buffered sibling flits are extracted now
// (their credits return through the normal path), in-flight and future flits
// will be discarded-with-credit on arrival, and a wire-dropped flit — which
// never arrives — has its credit returned here. The remaining-flit count
// tracks how many of the packet's flits are still unaccounted; the entry is
// deleted when it reaches zero, which wormhole serialization guarantees.
func (f *Iface) poison(now sim.Cycle, ch *Channel, fl packet.Flit, dropped bool) {
	p := fl.Pkt
	rem, already := f.poisoned[p]
	if !already {
		f.droppedPkts++
		rem = p.Flits()
		removed := f.extract(now, fl.VC, p)
		f.droppedFlits += int64(removed)
		rem -= removed
	}
	if dropped {
		ch.Credits.Send(now, Credit{VC: fl.VC})
		f.droppedFlits++
		rem--
	}
	if rem <= 0 {
		delete(f.poisoned, p)
	} else {
		f.poisoned[p] = rem
	}
}

func (f *Iface) sendFlits(now sim.Cycle) bool {
	var used [packet.NumClasses]*Channel // channels that carried a flit this cycle
	nUsed := 0
	for k := 0; k < packet.NumClasses; k++ {
		ci := (k + f.clsRR) % packet.NumClasses
		s := &f.slots[ci]
		if s.p == nil {
			continue
		}
		ch := f.outCh[ci]
		if ch == nil || !ch.Flits.CanSend(now) {
			continue
		}
		already := false
		for i := 0; i < nUsed; i++ {
			if used[i] == ch {
				already = true
				break
			}
		}
		if already {
			continue
		}
		if s.vc < 0 {
			// Head flit: allocate the freest VC in the packet's class range.
			base := ci * f.cfg.VCs
			best, bestCred := -1, 0
			for v := 0; v < f.cfg.VCs; v++ {
				if f.pfcOn && f.pfcPaused[base+v] {
					continue
				}
				if f.credits[base+v] > bestCred {
					best, bestCred = base+v, f.credits[base+v]
				}
			}
			if best < 0 {
				continue
			}
			s.vc = best
			s.p.InjectedAt = now
		}
		if f.pfcOn && f.pfcPaused[s.vc] {
			if !(f.cfg.Mutate.PFCIgnorePause && !f.mutPFCPauseDone && f.credits[s.vc] > 0) {
				continue
			}
			// Injected fault: one flit transmitted on a paused VC.
			f.mutPFCPauseDone = true
		}
		if f.credits[s.vc] <= 0 {
			if !f.cfg.Mutate.IgnoreCredit || f.mutCreditDone {
				continue
			}
			// Injected fault: overcommit the downstream buffer once.
			f.mutCreditDone = true
		}
		fl := packet.Flit{Pkt: s.p, Index: s.next, VC: s.vc}
		ch.Flits.Send(now, fl)
		f.credits[s.vc]--
		f.injectedFlits++
		s.next++
		if s.next == s.p.Flits() {
			f.injectedPkts++
			s.p = nil
			s.vc = -1
		}
		used[nUsed] = ch
		nUsed++
		f.clsRR = (ci + 1) % packet.NumClasses
	}
	return nUsed > 0
}

// Deliver pops the first fully reassembled packet satisfying pred (nil pred
// accepts anything), scanning VCs from a rotating offset. The packet's
// DeliveredAt is stamped with the current cycle.
func (f *Iface) Deliver(now sim.Cycle, pred func(*packet.Packet) bool) (*packet.Packet, bool) {
	if f.ejected == 0 {
		return nil, false
	}
	n := len(f.eject)
	g := f.scanRR
	if g >= n {
		g = 0
	}
	for k := 0; k < n; k++ {
		if k > 0 {
			g++
			if g == n {
				g = 0
			}
		}
		vc := &f.eject[g]
		if len(vc.q) == 0 || !vc.q[0].Head() {
			continue
		}
		p := vc.q[0].Pkt
		if !tailPresent(vc.q, p) {
			continue
		}
		if pred != nil && !pred(p) {
			continue
		}
		removed := f.extract(now, g, p)
		f.deliveredPkts++
		f.deliveredFlits += int64(removed)
		p.DeliveredAt = now
		f.scanRR = g + 1
		if f.scanRR == n {
			f.scanRR = 0
		}
		return p, true
	}
	return nil, false
}

// PendingFlits reports flits buffered on the eject side (not yet pulled).
func (f *Iface) PendingFlits() int { return f.ejected }

// Stats reports injected, delivered, and dropped packet counts.
func (f *Iface) Stats() (injected, delivered, dropped int64) {
	return f.injectedPkts, f.deliveredPkts, f.droppedPkts
}

func tailPresent(q []packet.Flit, p *packet.Packet) bool {
	for i := len(q) - 1; i >= 0; i-- {
		if q[i].Pkt == p && q[i].Tail() {
			return true
		}
	}
	return false
}
