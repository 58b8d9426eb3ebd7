package flow

import (
	"fmt"

	"nifdy/internal/packet"
	"nifdy/internal/ring"
	"nifdy/internal/router"
	"nifdy/internal/sim"
)

// Port is the flow fabric's packet-native router.Port implementation and the
// whole of one node's fabric state: one injection slot per class (busy until
// the flow's tail leaves the source), one landed-packet queue per class, and
// the solver's per-node census. The owning NIC writes the port during the
// tick phase; the solver writes it only from the pre-tick step hook, when no
// component is ticking — the two writers never overlap.
//
// The fields every event touches fill the first cache line; the record is
// three lines long (TestPortLayout).
type Port struct {
	// act is the quiescence latch the port lends its owning NIC. The port
	// owns it too: StartSend and Deliver park it, and the solver wakes it.
	act sim.Activity
	f   *Fabric

	// slots holds the packet occupying each class's injection slot; the
	// solver clears a slot when its flow retires. The slot's flow id is
	// flowID(node, class), live while its flow record holds the packet and
	// staged while the slot is busy but the record's pkt is nil.
	slots [packet.NumClasses]*packet.Packet
	// arrN counts the packets at the front of q that are in the arrival
	// buffer (the ejection-side analog): the NIC may pull them.
	arrN [packet.NumClasses]int32
	// nSrc and nDst count the live flows leaving and arriving at the node.
	nSrc, nDst int32

	// q is the landed-packet queue per class: the first arrN packets are in
	// the arrival buffer, and the rest are parked fabric-side behind it. The
	// solver lands packets at the back and moves the boundary as space frees;
	// Deliver pops the front and reports the freed space back through the
	// fabric's dirty list.
	q                     [packet.NumClasses]ring.Deque[*packet.Packet]
	arrFlits, parkedFlits [packet.NumClasses]int32

	node    int32
	dstHead int32 // first inbound flow (flowRec.nextD list), -1 = none
	clsRR   int32 // Deliver fairness rotation across classes

	injected, delivered, dropped int64
	_                            [8]byte // pad to three cache lines
}

var _ router.Port = (*Port)(nil)

func (pt *Port) init(f *Fabric, node int32) {
	pt.f = f
	pt.node = node
	pt.dstHead = -1
}

// Pump implements router.Port. The flow port has no per-cycle fabric work —
// the solver hands arrivals and slot completions over pre-tick — so Pump
// never reports progress of its own.
func (pt *Port) Pump(now sim.Cycle) bool { return false }

// CanAccept implements router.Port: the class injection slot is free once
// the previous packet's tail has left the source (solver-cleared).
func (pt *Port) CanAccept(c packet.Class) bool { return pt.slots[c] == nil }

// StartSend implements router.Port: the packet occupies the class slot and
// is staged for activation at the next solver step. It parks the port's
// latch at Never: the slot frees only in retire, which wakes the owner on
// that cycle, so an owner with nothing else to do is not visited before it.
// An owner with work of its own asks for its next cycle (WakeAt).
func (pt *Port) StartSend(now sim.Cycle, p *packet.Packet) {
	c := p.Class
	if pt.slots[c] != nil {
		panic(fmt.Sprintf("flow: node %d StartSend with class %d slot busy", pt.node, c))
	}
	pt.slots[c] = p
	p.InjectedAt = now
	pt.f.staged = sim.Push(pt.f.staged, stagedSend{node: pt.node, cls: uint8(c), p: p})
	pt.act.Sleep(sim.Never)
	// The solver must run next cycle to activate the staged flow, even if it
	// was asleep until a later stride boundary.
	pt.f.clock.WakeAt(now + 1)
}

// Deliver implements router.Port: it pops the first arrival-buffer head
// satisfying pred, scanning classes round-robin, and tells the solver the
// freed space so parked packets can promote next cycle. Most calls find the
// arrival buffers empty, which the first cache line tells. A pop parks the
// port's latch at Never, as StartSend does: the next arrival is a solver
// wake (deliverArr), and an owner that leaves packets unpulled or has work
// of its own asks for its next cycle.
func (pt *Port) Deliver(now sim.Cycle, pred func(*packet.Packet) bool) (*packet.Packet, bool) {
	if pt.arrN == [packet.NumClasses]int32{} {
		return nil, false
	}
	for i := range int32(packet.NumClasses) {
		c := (pt.clsRR + i) % packet.NumClasses
		if pt.arrN[c] == 0 {
			continue
		}
		if head, _ := pt.q[c].Front(); pred != nil && !pred(head) {
			continue
		}
		p, _ := pt.q[c].PopFront()
		pt.arrN[c]--
		pt.arrFlits[c] -= int32(p.Flits())
		pt.delivered++
		pt.clsRR = c + 1
		p.DeliveredAt = now
		pt.f.dirty = append(pt.f.dirty, pt.node)
		// Freed arrival space may promote a parked packet at the next step.
		pt.f.clock.WakeAt(now + 1)
		pt.act.Sleep(sim.Never)
		return p, true
	}
	return nil, false
}

// Quiet implements router.Port: no sends in flight and nothing delivered
// but unpulled.
func (pt *Port) Quiet() bool {
	for c := range pt.slots {
		if pt.slots[c] != nil || pt.arrN[c] > 0 {
			return false
		}
	}
	return true
}

// Activity implements router.Port.
func (pt *Port) Activity() *sim.Activity { return &pt.act }

// NextArrivalAt implements router.Port. The solver wakes the port's
// Activity on the exact cycle an arrival lands, so a quiescent NIC may
// sleep unbounded; anything already queued is deliverable now.
func (pt *Port) NextArrivalAt() sim.Cycle {
	for _, n := range pt.arrN {
		if n > 0 {
			return 0
		}
	}
	return sim.Never
}

// BlockedBound implements router.Port: Never. Every fabric-side state a
// stuck NIC can wait on changes only at an event that wakes its Activity on
// the cycle it happens: a busy slot frees in retire, an arrival lands in
// deliverArr (from land or promote), and a staged slot's activation leaves
// the slot busy, which the NIC cannot tell apart. The solver issues those
// wakes from its pre-tick hook, so no sleep the NIC takes afterwards can
// lose one; a NIC's own deadlines are the only bounds left on its sleep.
// The same wakes are why StartSend and Deliver may park the latch: a port
// never needs its owner awake, only the owner's own work does.
func (pt *Port) BlockedBound(now sim.Cycle) sim.Cycle { return sim.Never }

// Stats implements router.Port.
func (pt *Port) Stats() (injected, delivered, dropped int64) {
	return pt.injected, pt.delivered, pt.dropped
}
