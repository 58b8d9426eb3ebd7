package flow

import (
	"fmt"

	"nifdy/internal/packet"
	"nifdy/internal/ring"
	"nifdy/internal/router"
	"nifdy/internal/sim"
)

// Port is the flow fabric's packet-native router.Port implementation: one
// injection slot per class (busy until the flow's tail leaves the source)
// and one arrival FIFO per class (filled by the solver pre-tick, drained by
// the NIC during its tick). The owning NIC's shard writes the port during
// the tick phase; the solver writes it only from the pre-tick step hook,
// when no shard is running — the two writers never overlap.
type Port struct {
	f    *Fabric
	node int32
	// shard indexes the fabric's staging lists; assigned at registration.
	shard int32

	// slots holds the packet occupying each class's injection slot; the
	// solver clears a slot when its flow drains. slotFlow is the live flow
	// id (-1 while staged or empty) — BlockedBound asks for its drain bound.
	slots    [packet.NumClasses]*packet.Packet
	slotFlow [packet.NumClasses]int32

	// arrQ/arrFlits are the per-class arrival buffers (the ejection-side
	// analog); the solver enqueues, Deliver pops and reports the freed
	// space back through the fabric's dirty lists.
	arrQ     [packet.NumClasses]ring.Deque[*packet.Packet]
	arrFlits [packet.NumClasses]int32

	clsRR int // Deliver fairness rotation across classes

	// act is the quiescence latch shared with the owning NIC; it aliases
	// ownAct except under the hybrid mux, where it aliases the flit
	// interface's latch so either sub-port can wake the NIC.
	act    *sim.Activity
	ownAct sim.Activity

	injected, delivered, dropped int64
}

var _ router.Port = (*Port)(nil)

func (pt *Port) init(f *Fabric, node int32) {
	pt.f = f
	pt.node = node
	pt.act = &pt.ownAct
	for c := range pt.slotFlow {
		pt.slotFlow[c] = -1
	}
}

// Pump implements router.Port. The flow port has no per-cycle fabric work —
// the solver hands arrivals and slot completions over pre-tick — so Pump
// never reports progress of its own.
func (pt *Port) Pump(now sim.Cycle) bool { return false }

// CanAccept implements router.Port: the class injection slot is free once
// the previous packet's tail has left the source (solver-cleared).
func (pt *Port) CanAccept(c packet.Class) bool { return pt.slots[c] == nil }

// StartSend implements router.Port: the packet occupies the class slot and
// is staged for activation at the next solver step.
func (pt *Port) StartSend(now sim.Cycle, p *packet.Packet) {
	c := p.Class
	if pt.slots[c] != nil {
		panic(fmt.Sprintf("flow: node %d StartSend with class %d slot busy", pt.node, c))
	}
	pt.slots[c] = p
	pt.slotFlow[c] = -1
	p.InjectedAt = now
	sh := &pt.f.staged[pt.shard]
	*sh = append(*sh, stagedSend{node: pt.node, cls: uint8(c), p: p})
	// The solver must run next cycle to activate the staged flow, even if it
	// was asleep until a later stride boundary.
	pt.f.clock.WakeAt(now + 1)
}

// Sending implements router.Port.
func (pt *Port) Sending(c packet.Class) *packet.Packet { return pt.slots[c] }

// Deliver implements router.Port: it pops the first arrival-queue head
// satisfying pred, scanning classes round-robin, and tells the solver the
// freed space so parked packets can promote next cycle.
func (pt *Port) Deliver(now sim.Cycle, pred func(*packet.Packet) bool) (*packet.Packet, bool) {
	for i := 0; i < packet.NumClasses; i++ {
		c := (pt.clsRR + i) % packet.NumClasses
		head, ok := pt.arrQ[c].Front()
		if !ok || (pred != nil && !pred(head)) {
			continue
		}
		p, _ := pt.arrQ[c].PopFront()
		pt.arrFlits[c] -= int32(p.Flits())
		pt.delivered++
		pt.clsRR = c + 1
		p.DeliveredAt = now
		d := &pt.f.dirty[pt.shard]
		*d = append(*d, pt.node)
		// Freed arrival space may promote a parked packet at the next step.
		pt.f.clock.WakeAt(now + 1)
		return p, true
	}
	return nil, false
}

// PendingFlits implements router.Port: flits buffered on the delivered side
// awaiting the NIC (arrival queues).
func (pt *Port) PendingFlits() int {
	n := 0
	for c := range pt.arrQ {
		n += int(pt.arrFlits[c])
	}
	return n
}

// Quiet implements router.Port: no sends in flight and nothing delivered
// but unpulled.
func (pt *Port) Quiet() bool {
	for c := range pt.slots {
		if pt.slots[c] != nil || pt.arrQ[c].Len() > 0 {
			return false
		}
	}
	return true
}

// Activity implements router.Port.
func (pt *Port) Activity() *sim.Activity { return pt.act }

// NextArrivalAt implements router.Port. The solver wakes the port's
// Activity on the exact cycle an arrival lands, so a quiescent NIC may
// sleep unbounded; anything already queued is deliverable now.
func (pt *Port) NextArrivalAt() sim.Cycle {
	for c := range pt.arrQ {
		if pt.arrQ[c].Len() > 0 {
			return 0
		}
	}
	return sim.Never
}

// BlockedBound implements router.Port: the earliest cycle fabric-side state
// a stuck NIC waits on could change, as things stand. A busy slot frees at
// its flow's drain bound, rounded up to the solver's stride boundary (the
// solver only retires flows when it runs); a staged slot resolves at the
// next solver step. The bound is a snapshot, not a promise — a later rate
// change can move the drain either way and wakes nobody — and sleeping on it
// is sound all the same, because retire wakes the port's Activity on the
// cycle the slot actually frees: a NIC asleep past that cycle is woken for
// it, and one woken early finds the slot busy and asks again.
func (pt *Port) BlockedBound(now sim.Cycle) sim.Cycle {
	bound := sim.Never
	for c := range pt.slots {
		if pt.slots[c] == nil {
			continue
		}
		id := pt.slotFlow[c]
		if id < 0 {
			return now + 1 // staged: the solver activates it next cycle
		}
		if at := pt.f.drainAt(id); at < bound {
			bound = at
		}
	}
	if s := sim.Cycle(pt.f.cfg.SolveStride); s > 1 && bound != sim.Never {
		bound = (bound + s - 1) / s * s
	}
	return bound
}

// Stats implements router.Port.
func (pt *Port) Stats() (injected, delivered, dropped int64) {
	return pt.injected, pt.delivered, pt.dropped
}
