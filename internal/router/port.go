package router

import (
	"nifdy/internal/packet"
	"nifdy/internal/sim"
)

// Port is the boundary a NIC drives: the fabric-facing side of a node's
// network attachment. The flit-accurate fabrics implement it with *Iface
// (serialization slots, ejection VC buffers, credits); the flow-level fabric
// in internal/flow implements it packet-natively (whole packets enter and
// leave the bandwidth-sharing model, with serialization modeled as time
// arithmetic). The NIC protocol layer — admission control, OPT, dialogs,
// windows, acks — is written against this interface only, so it runs exactly
// the same state machine over either fidelity.
//
// The contract mirrors Iface's:
//
//   - Pump drains fabric-side work (credits, arrivals, pending hand-offs)
//     and reports whether any state changed; NICs call it first each Tick.
//   - CanAccept/StartSend inject one whole packet per class at a time;
//     StartSend panics if the class slot is busy.
//   - Deliver pops the next fully arrived packet satisfying pred (nil
//     accepts anything); unpulled packets keep exerting backpressure into
//     the fabric.
//   - Quiet reports that nothing is mid-serialization and nothing arrived
//     but unpulled: the port's half of a NIC's Idle and sleep checks.
//   - Activity is the quiescence latch shared by the port and its NIC; the
//     fabric wakes it on arrivals, credit/space returns, and hand-offs. A
//     port may also park it: the flow port does in StartSend and in a
//     Deliver that pops, because every later change at a flow port is a
//     solver wake. A NIC therefore stays awake only by asking — WakeAt(now+1)
//     at the end of a Tick that leaves it work of its own — never by making
//     no Sleep call. (Iface never parks: its busy slot must be pumped every
//     cycle, so its latch stays due while the port is not Quiet.)
//   - NextArrivalAt/BlockedBound are the sleep bounds a quiescent or stuck
//     NIC may park until. They bound only the waits that have no wake edge:
//     an event for which the fabric wakes the Activity on its own cycle
//     needs no bound. The flow fabric's solver wakes the port on the cycle
//     a slot frees or a packet lands, so its BlockedBound is Never; Iface
//     bounds a busy slot by its output link's free cycle, which no wire
//     observer signals.
type Port interface {
	Pump(now sim.Cycle) bool
	CanAccept(c packet.Class) bool
	StartSend(now sim.Cycle, p *packet.Packet)
	Deliver(now sim.Cycle, pred func(*packet.Packet) bool) (*packet.Packet, bool)
	Quiet() bool
	Activity() *sim.Activity
	NextArrivalAt() sim.Cycle
	BlockedBound(now sim.Cycle) sim.Cycle
	Stats() (injected, delivered, dropped int64)
}

// Iface is the flit-accurate Port implementation.
var _ Port = (*Iface)(nil)
