package check

import (
	"sort"

	"nifdy/internal/nic"
	"nifdy/internal/packet"
	"nifdy/internal/router"
	"nifdy/internal/sim"
)

// sortedIntKeys returns m's keys in ascending order — the sanctioned way to
// walk a map deterministically.
//
//lint:allow(mapiter) key-collection for sorting; the sorted result is independent of iteration order
func sortedIntKeys(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// PacketAuditor is implemented by fabrics that hold whole packets rather
// than flits (the flow-level fabric, and the hybrid seam for its flow
// side). AuditPackets calls f once per whole-packet reference the fabric
// holds, in a deterministic order, with a location label; like the other
// audits it must only run while the fabric is quiescent. PacketCounters
// returns the fabric's lifetime books: packets admitted as flows, delivered
// into arrival buffers, and dropped by the loss model. The in-fabric labels
// ("flow", "parked", "pipe") must census to injected−delivered−dropped;
// "staged" (accepted but not yet activated) and "port-arr" (delivered but
// not yet pulled) sit outside the books on either side.
type PacketAuditor interface {
	AuditPackets(f func(node int, where string, p *packet.Packet))
	PacketCounters() (injected, delivered, dropped int64)
}

// whereRef names one whole-packet reference location for census messages.
type whereRef struct {
	where string
	node  int
}

// flitKey identifies one flit: a (packet, index) pair must exist at most
// once anywhere in the fabric.
type flitKey struct {
	p   *packet.Packet
	idx int
}

// vcCensus accumulates one (channel, global VC)'s books: the upstream
// credit counter, the downstream buffer, and the in-flight traffic between
// them.
type vcCensus struct {
	hasUp, hasDown         bool
	credits, initial       int
	occ, cap               int
	upNode, downNode       int // -1 for router endpoints
	wireFlits, wireCredits int

	// PFC pause-state books (populated only when PFC is enabled): the
	// transmitter's view (paused since pfcSince), the receiver's issued
	// state, and the last pause/resume frame still in flight on the credit
	// wire — frames are absolute set/clear operations, so the last one in
	// arrival order decides the transmitter's post-drain state.
	pfcHasTx, pfcTx bool
	pfcSince        sim.Cycle
	pfcHasRx, pfcRx bool
	pfcLastFrame    router.CreditKind
}

// chanCensus is one channel's per-VC books.
type chanCensus struct{ vcs []vcCensus }

func (cc *chanCensus) at(vc int) *vcCensus {
	for len(cc.vcs) <= vc {
		cc.vcs = append(cc.vcs, vcCensus{upNode: -1, downNode: -1})
	}
	return &cc.vcs[vc]
}

// sweep takes the global census: whole-packet references, flits, credits,
// and the NIFDY protocol state, verifying every invariant in one pass. It
// runs on the stepping goroutine at a fully quiescent point.
func (c *Checker) sweep(now sim.Cycle) {
	whole := map[*packet.Packet]whereRef{}
	fabric := map[*packet.Packet]struct{}{}
	flits := map[flitKey]struct{}{}
	chans := map[*router.Channel]*chanCensus{}
	var order []*router.Channel

	addWhole := func(nd int, where string, p *packet.Packet) {
		if p == nil {
			c.report(now, MonRecycleSafety, nd, "nil packet referenced from %s", where)
			return
		}
		if prev, ok := whole[p]; ok {
			c.report(now, MonRecycleSafety, nd,
				"packet %v reachable twice: %s@%d and %s@%d", p, prev.where, prev.node, where, nd)
			return
		}
		whole[p] = whereRef{where, nd}
	}
	addFlit := func(f packet.Flit, nd int, where string) {
		if f.Pkt == nil {
			c.report(now, MonFlitConservation, nd, "nil-packet flit in %s", where)
			return
		}
		if f.Index < 0 || f.Index >= f.Pkt.Flits() {
			c.report(now, MonFlitConservation, nd,
				"flit index %d out of range for %v in %s", f.Index, f.Pkt, where)
		}
		k := flitKey{f.Pkt, f.Index}
		if _, dup := flits[k]; dup {
			c.report(now, MonFlitConservation, nd,
				"flit (%v, %d) exists twice (second copy in %s)", f.Pkt, f.Index, where)
		}
		flits[k] = struct{}{}
		fabric[f.Pkt] = struct{}{}
	}
	chAt := func(ch *router.Channel) *chanCensus {
		cc, ok := chans[ch]
		if !ok {
			cc = &chanCensus{}
			chans[ch] = cc
			order = append(order, ch)
		}
		return cc
	}

	// NIC queues, protocol state, and the packets processors hold (inbox,
	// arrival being handled, unsent packet).
	for _, nc := range c.nics {
		c.auditNIC(now, nc, addWhole)
	}
	for _, p := range c.procs {
		nd := p.ID()
		p.AuditHeld(func(where string, pkt *packet.Packet) { addWhole(nd, where, pkt) })
	}

	// Interfaces: serialization slots, ejection buffers, injection credits,
	// and the lifetime flit counters the conservation sum closes against.
	// Flow-level fabrics have no flit-accurate ports; their packet-census
	// path is below (PacketAuditor).
	var injected, delivered, dropped int64
	ejectFlits := 0
	flitPorts := 0
	for n := 0; n < c.net.Nodes(); n++ {
		nd := n
		ifc, isFlit := c.net.Iface(nd).(*router.Iface)
		if !isFlit {
			continue
		}
		flitPorts++
		inj, del, drp := ifc.FlitCounters()
		injected += inj
		delivered += del
		dropped += drp
		ifc.Audit(router.IfaceAuditor{
			Sending: func(_ packet.Class, p *packet.Packet, _ int) {
				addWhole(nd, "sending", p)
			},
			EjectVC: func(vc int, ch *router.Channel, occ, capacity int) {
				v := chAt(ch).at(vc)
				v.hasDown, v.occ, v.cap, v.downNode = true, occ, capacity, nd
				ejectFlits += occ
			},
			EjectFlit: func(vc int, f packet.Flit) { addFlit(f, nd, "eject buffer") },
			OutVC: func(vc int, ch *router.Channel, credits, initial int) {
				v := chAt(ch).at(vc)
				v.hasUp, v.credits, v.initial, v.upNode = true, credits, initial, nd
			},
			PFCTx: func(vc int, ch *router.Channel, paused bool, since sim.Cycle) {
				v := chAt(ch).at(vc)
				v.pfcHasTx, v.pfcTx, v.pfcSince = true, paused, since
			},
			PFCRx: func(vc int, ch *router.Channel, active bool) {
				v := chAt(ch).at(vc)
				v.pfcHasRx, v.pfcRx = true, active
			},
		})
	}

	// Routers: input buffers (downstream books) and output credit counters
	// (upstream books).
	routerFlits := 0
	c.net.AuditRouters(func(r *router.Router) {
		r.Audit(router.Auditor{
			InVC: func(port, vc int, ch *router.Channel, occ, capacity int) {
				v := chAt(ch).at(vc)
				v.hasDown, v.occ, v.cap = true, occ, capacity
				routerFlits += occ
			},
			BufFlit: func(port, vc int, f packet.Flit) { addFlit(f, -1, "router buffer") },
			OutVC: func(port, vc int, ch *router.Channel, credits, initial int) {
				v := chAt(ch).at(vc)
				v.hasUp, v.credits, v.initial = true, credits, initial
			},
			PFCTx: func(port, vc int, ch *router.Channel, paused bool, since sim.Cycle) {
				v := chAt(ch).at(vc)
				v.pfcHasTx, v.pfcTx, v.pfcSince = true, paused, since
			},
			PFCRx: func(port, vc int, ch *router.Channel, active bool) {
				v := chAt(ch).at(vc)
				v.pfcHasRx, v.pfcRx = true, active
			},
		})
	})

	// Wires: traffic in flight between the endpoints, once per channel. A
	// flit's time of transmission is bounded from its arrival by the link's
	// serialization and latency; while the transmitter is paused, no flit may
	// have been sent at or after the pause took effect. PFC frames share the
	// credit wire but are not credits; they are folded into the pause-state
	// reconciliation instead of the conservation books.
	wireFlits := 0
	for _, ch := range order {
		cc := chans[ch]
		cpfLat := sim.Cycle(ch.Flits.CyclesPerFlit() + ch.Flits.Latency() - 1)
		ch.Flits.ForEach(func(at sim.Cycle, f packet.Flit) {
			addFlit(f, -1, "wire")
			v := cc.at(f.VC)
			v.wireFlits++
			wireFlits++
			if v.pfcHasTx && v.pfcTx {
				if sent := at - cpfLat; sent >= v.pfcSince {
					c.report(now, MonPFCPause, v.upNode,
						"vc %d flit (%v, %d) transmitted at %d, at/after pause took effect at %d",
						f.VC, f.Pkt, f.Index, sent, v.pfcSince)
				}
			}
		})
		ch.Credits.ForEach(func(_ sim.Cycle, cr router.Credit) {
			v := cc.at(cr.VC)
			if cr.Kind == router.CreditReturn {
				v.wireCredits++
			} else {
				v.pfcLastFrame = cr.Kind
			}
		})
	}

	// PFC pause/resume pairing: the transmitter's pause state, updated by the
	// frames still in flight (in arrival order), must equal the receiver's
	// issued state — a pause or resume can be in transit, but never lost.
	for _, ch := range order {
		for vc := range chans[ch].vcs {
			v := &chans[ch].vcs[vc]
			if !v.pfcHasTx || !v.pfcHasRx {
				continue
			}
			projected := v.pfcTx
			//lint:allow(kindswitch) pfcLastFrame only tracks pause/resume frames; CreditReturn never updates it, so the residue is the no-frames-in-flight identity
			switch v.pfcLastFrame {
			case router.PFCPause:
				projected = true
			case router.PFCResume:
				projected = false
			}
			if projected != v.pfcRx {
				c.report(now, MonPFCPause, v.downNode,
					"vc %d pause/resume pairing broken: transmitter %v (after in-flight frames %v), receiver issued %v",
					vc, v.pfcTx, projected, v.pfcRx)
			}
		}
	}

	// Credit conservation and capacity, per (channel, VC).
	for _, ch := range order {
		for vc := range chans[ch].vcs {
			v := &chans[ch].vcs[vc]
			if v.hasDown && v.occ > v.cap {
				c.report(now, MonVCCapacity, v.downNode,
					"vc %d occupancy %d exceeds capacity %d", vc, v.occ, v.cap)
			}
			if !v.hasUp {
				// No credit issuer registered this VC (e.g. the unused class
				// of a per-class CM-5 channel): any activity is a breach.
				if (v.hasDown && v.occ > 0) || v.wireFlits > 0 || v.wireCredits > 0 {
					c.report(now, MonCreditConservation, v.downNode,
						"vc %d has traffic (occ %d, wire %d/%d) but no credit issuer",
						vc, v.occ, v.wireFlits, v.wireCredits)
				}
				continue
			}
			if v.credits < 0 || v.credits > v.initial {
				c.report(now, MonVCCapacity, v.upNode,
					"vc %d credit counter %d outside [0, %d]", vc, v.credits, v.initial)
			}
			if v.hasDown && v.cap != v.initial {
				c.report(now, MonCreditConservation, v.upNode,
					"vc %d grant %d disagrees with downstream capacity %d", vc, v.initial, v.cap)
			}
			down := 0
			if v.hasDown {
				down = v.occ
			}
			if sum := v.credits + v.wireFlits + v.wireCredits + down; sum != v.initial {
				c.report(now, MonCreditConservation, v.upNode,
					"vc %d books don't balance: credits %d + wire flits %d + wire credits %d + downstream %d = %d, want %d",
					vc, v.credits, v.wireFlits, v.wireCredits, down, sum, v.initial)
			}
		}
	}

	// Flit conservation: the interfaces' lifetime counters against the
	// census of what is actually in the fabric right now. Only meaningful
	// when every port is flit-accurate (a hybrid fabric's flit counters
	// cover just its hot region, whose books don't close on their own).
	if flitPorts == c.net.Nodes() {
		if want, got := injected-delivered-dropped, int64(routerFlits+ejectFlits+wireFlits); want != got {
			c.report(now, MonFlitConservation, -1,
				"counters say %d flits in fabric (injected %d - delivered %d - dropped %d), census found %d (%d router + %d eject + %d wire)",
				want, injected, delivered, dropped, got, routerFlits, ejectFlits, wireFlits)
		}
	}

	// Flow-level fabrics: whole-packet census. Every packet the fabric holds
	// (staged sends, active flows, pipe entries, parked completions, port
	// arrival queues) is an exclusive whole-packet reference, and the
	// fabric's lifetime books must close against the in-fabric references.
	if pa, ok := c.net.(PacketAuditor); ok {
		var fabricPkts int64
		pa.AuditPackets(func(nd int, where string, p *packet.Packet) {
			addWhole(nd, where, p)
			switch where {
			case "flow", "parked", "pipe":
				fabricPkts++
			}
		})
		pinj, pdel, pdrop := pa.PacketCounters()
		if want := pinj - pdel - pdrop; want != fabricPkts {
			c.report(now, MonFlitConservation, -1,
				"flow fabric books say %d packets in flight (injected %d - delivered %d - dropped %d), census found %d",
				want, pinj, pdel, pdrop, fabricPkts)
		}
	}

	// Recycle safety: free-listed packets must be dead — not on any free
	// list twice, not referenced whole anywhere, and without flits in the
	// fabric.
	freeSeen := map[*packet.Packet]int{}
	for _, nc := range c.nics {
		nd := nc.Node()
		nc.Pool().ForEachFree(func(p *packet.Packet) {
			if prev, ok := freeSeen[p]; ok {
				c.report(now, MonRecycleSafety, nd,
					"packet %v free-listed twice (nodes %d and %d)", p, prev, nd)
				return
			}
			freeSeen[p] = nd
			if ref, ok := whole[p]; ok {
				c.report(now, MonRecycleSafety, nd,
					"free-listed packet %v still live at %s@%d", p, ref.where, ref.node)
			}
			if _, ok := fabric[p]; ok {
				c.report(now, MonRecycleSafety, nd,
					"free-listed packet %v still has flits in the fabric", p)
			}
		})
	}
}

// nifdyLike is the protocol-state surface the NIFDY unit exposes; the
// monitors use it without importing internal/core.
type nifdyLike interface {
	nic.Auditable
	Params() (o, b, d, w int)
}

// rateBounded is the surface a rate-controlled NIC (the DCQCN kind) exposes
// for the rate-bounds monitor: the current sending rate and the configured
// clamp it must never leave.
type rateBounded interface {
	RateBounds() (rate, min, max int64)
}

// auditNIC walks one NIC's packet references and, for NIFDY units, checks
// the protocol bounds against the unit's own (O, B, D, W). Rate-controlled
// NICs additionally have their sending rate checked against its clamp.
func (c *Checker) auditNIC(now sim.Cycle, nc nic.NIC, addWhole func(nd int, where string, p *packet.Packet)) {
	if rb, ok := nc.(rateBounded); ok {
		if rate, lo, hi := rb.RateBounds(); rate < lo || rate > hi {
			c.report(now, MonDCQCNRate, nc.Node(),
				"sending rate %d outside configured bounds [%d, %d]", rate, lo, hi)
		}
	}
	aud, ok := nc.(nic.Auditable)
	if !ok {
		return
	}
	nd := nc.Node()
	a := nic.Auditor{
		Queued: func(where string, p *packet.Packet) { addWhole(nd, where, p) },
	}
	pn, isNIFDY := nc.(nifdyLike)
	if !isNIFDY {
		aud.Audit(a)
		return
	}
	o, _, d, w := pn.Params()
	optCount, dialogs := 0, 0
	optSeen := map[int]bool{}
	srcBySlot := map[int]int{}
	expBySlot := map[int]int{}
	a.OPTEntry = func(dst int) {
		optCount++
		if optSeen[dst] {
			c.report(now, MonScalarExclusive, nd,
				"two outstanding scalar packets for destination %d", dst)
		}
		optSeen[dst] = true
	}
	a.DialogOut = func(dst, outstanding int) {
		if outstanding > w || outstanding < 0 {
			c.report(now, MonWindowBound, nd,
				"sender dialog to %d has %d outstanding, window W=%d", dst, outstanding, w)
		}
	}
	a.DialogIn = func(slot, src, expected, buffered int) {
		dialogs++
		// Sorted sweep so a duplicate-sender violation always names the
		// same slot pair regardless of map iteration order.
		for _, s := range sortedIntKeys(srcBySlot) {
			if srcBySlot[s] == src {
				c.report(now, MonDialogBound, nd,
					"two dialogs (slots %d and %d) from the same sender %d", s, slot, src)
			}
		}
		srcBySlot[slot] = src
		expBySlot[slot] = expected
		if buffered > w || buffered < 0 {
			c.report(now, MonWindowBound, nd,
				"dialog slot %d buffers %d packets, window W=%d", slot, buffered, w)
		}
	}
	a.WindowSlot = func(slot int, p *packet.Packet) {
		exp := expBySlot[slot]
		if p.Seq < exp || p.Seq >= exp+w {
			c.report(now, MonWindowBound, nd,
				"dialog slot %d buffers seq %d outside window [%d, %d)", slot, p.Seq, exp, exp+w)
		}
		if src := srcBySlot[slot]; p.Src != src {
			c.report(now, MonDialogBound, nd,
				"dialog slot %d (sender %d) buffers packet from %d", slot, src, p.Src)
		}
		if p.Dialog != slot {
			c.report(now, MonDialogBound, nd,
				"packet %v parked in dialog slot %d", p, slot)
		}
	}
	aud.Audit(a)
	if optCount > o {
		c.report(now, MonOPTBound, nd, "OPT holds %d entries, bound O=%d", optCount, o)
	}
	if dialogs > d {
		c.report(now, MonDialogBound, nd, "%d active dialogs, bound D=%d", dialogs, d)
	}
}
