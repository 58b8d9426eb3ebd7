package nic

import (
	"nifdy/internal/packet"
	"nifdy/internal/ring"
	"nifdy/internal/router"
	"nifdy/internal/sim"
)

// Base is the protocol-less half every NIC kind shares: the node's fabric
// port, the arrivals FIFO the processor pulls from, the node's packet pool,
// the counters and hooks, and the processor's wake edge. Basic, DCQCN (via
// Basic) and the NIFDY unit embed it and add only their send path, their
// pull policy and their protocol state, so the paper's "buffers only"
// comparison (§3) differs from NIFDY in the protocol alone.
type Base struct {
	// Port is the fabric side the NIC drives.
	Port router.Port
	// Arr is the arrivals FIFO: data packets ready for the processor.
	Arr ring.Deque[*packet.Packet]
	// Hooks observe packet events.
	Hooks Hooks

	node  int
	pool  packet.Pool
	act   *sim.Activity // Port.Activity(), which is stable: no interface call per sleep
	proc  *sim.Activity // woken when a packet lands in Arr or send space frees
	stats Stats
}

// NewBase returns the shared state of node's NIC, attached to port.
func NewBase(node int, hooks Hooks, port router.Port) Base {
	return Base{Port: port, Hooks: hooks, node: node, act: port.Activity()}
}

// Node implements NIC.
func (b *Base) Node() int { return b.node }

// Stats implements NIC.
func (b *Base) Stats() *Stats { return &b.stats }

// Pool implements NIC.
func (b *Base) Pool() *packet.Pool { return &b.pool }

// Pending implements NIC.
func (b *Base) Pending() int { return b.Arr.Len() }

// Activity implements sim.IdleTicker: the NIC shares its port's quiescence
// latch, so fabric arrivals wake it directly.
func (b *Base) Activity() *sim.Activity { return b.act }

// ObserveProc implements NIC.
func (b *Base) ObserveProc(a *sim.Activity) { b.proc = a }

// WakeProc raises a wake edge on the observing processor, if there is one.
func (b *Base) WakeProc() {
	if b.proc != nil {
		b.proc.Wake()
	}
}

// WakeOnRoom raises the "TrySend may now succeed" edge when a buffer of
// capacity limit is about to pop one of its n packets: only a full buffer
// can have refused anything.
func (b *Base) WakeOnRoom(n, limit int) {
	if n >= limit {
		b.WakeProc()
	}
}

// Arrive appends a data packet to the arrivals FIFO and wakes the processor
// (it may be parked on "something to poll").
func (b *Base) Arrive(p *packet.Packet) {
	b.Arr.PushBack(p)
	b.WakeProc()
}

// Admitted records that TrySend took p: it stamps CreatedAt, counts the
// send, fires OnSend, and wakes the port — the processor ticks after the
// NIC, so the scheduler must run the NIC next cycle exactly as if it had
// never slept.
func (b *Base) Admitted(now sim.Cycle, p *packet.Packet) {
	p.CreatedAt = now
	b.stats.Sent++
	b.Hooks.Send(p)
	b.act.Wake()
}

// Recv implements NIC: the processor accepts the head of the arrivals FIFO.
// The freed space may let a NIC blocked on a full queue pull its next
// packet, so the port is woken as if it had never slept.
func (b *Base) Recv(now sim.Cycle) (*packet.Packet, bool) {
	p, ok := b.Arr.PopFront()
	if !ok {
		return nil, false
	}
	p.AcceptedAt = now
	b.stats.Accepted++
	b.Hooks.Accept(p)
	b.act.Wake()
	return p, true
}

// Drained reports whether the arrivals FIFO is empty and the port holds
// nothing mid-serialization or unpulled: the shared half of Idle.
func (b *Base) Drained() bool { return b.Arr.Len() == 0 && b.Port.Quiet() }
