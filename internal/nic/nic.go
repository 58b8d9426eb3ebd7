// Package nic defines the network interface controllers that sit between a
// processor and the fabric: the interface all NICs satisfy, the half of a
// NIC every kind shares (Base), and the protocol-less baselines the paper
// compares NIFDY against — a plain NIC with minimal buffering, and a
// "buffers only" NIC that has NIFDY's total buffering but none of its
// admission control (§3: "An option allows the NIFDY units to be included
// but disabled... This allows us to separate the effects of the NIFDY
// protocol itself from the benefit of simply having extra buffering").
//
// The NIFDY NIC itself lives in internal/core, built on Base.
package nic

import (
	"nifdy/internal/packet"
	"nifdy/internal/ring"
	"nifdy/internal/router"
	"nifdy/internal/sim"
)

// Stats counts NIC-level events.
type Stats struct {
	// Sent counts data packets the processor handed to the NIC; Accepted
	// counts data packets the processor pulled out.
	Sent, Accepted int64
	// Injected counts data packets that entered the fabric.
	Injected int64
	// AcksSent and AcksReceived count protocol acknowledgments.
	AcksSent, AcksReceived int64
	// BulkGrants, BulkRejects, and BulkPackets count bulk-dialog activity.
	BulkGrants, BulkRejects, BulkPackets int64
	// Retransmits counts retransmitted copies; Duplicates counts copies the
	// receiver discarded (lossy-network extension).
	Retransmits, Duplicates int64
}

// Add accumulates o's counters into s: the one place a new counter has to
// be summed.
func (s *Stats) Add(o *Stats) {
	s.Sent += o.Sent
	s.Accepted += o.Accepted
	s.Injected += o.Injected
	s.AcksSent += o.AcksSent
	s.AcksReceived += o.AcksReceived
	s.BulkGrants += o.BulkGrants
	s.BulkRejects += o.BulkRejects
	s.BulkPackets += o.BulkPackets
	s.Retransmits += o.Retransmits
	s.Duplicates += o.Duplicates
}

// Hooks let the harness observe packet lifecycle events (e.g. the Figure 5
// pending-per-receiver heatmap tracks Send/Accept).
type Hooks struct {
	// OnSend fires when the processor hands a data packet to the NIC.
	OnSend func(p *packet.Packet)
	// OnAccept fires when the processor accepts a data packet.
	OnAccept func(p *packet.Packet)
}

// Send fires OnSend if set.
func (h Hooks) Send(p *packet.Packet) {
	if h.OnSend != nil {
		h.OnSend(p)
	}
}

// Accept fires OnAccept if set.
func (h Hooks) Accept(p *packet.Packet) {
	if h.OnAccept != nil {
		h.OnAccept(p)
	}
}

// Combine returns Hooks that fire a's callbacks then b's, so independent
// observers (e.g. the stats sampler and the invariant monitors) can share one
// NIC's hook slot.
func Combine(a, b Hooks) Hooks {
	if a.OnSend == nil && a.OnAccept == nil {
		return b
	}
	if b.OnSend == nil && b.OnAccept == nil {
		return a
	}
	return Hooks{
		OnSend:   func(p *packet.Packet) { a.Send(p); b.Send(p) },
		OnAccept: func(p *packet.Packet) { a.Accept(p); b.Accept(p) },
	}
}

// Auditor is a read-only visitor over a NIC's internal packet references and
// protocol state, used by the invariant monitors. The contract: Queued fires
// once per whole-packet reference the NIC holds (a live packet must never
// have two); the protocol callbacks describe NIFDY's admission state and are
// never called by protocol-less NICs. Audits run only at quiescent points
// (engine step hooks). Nil callbacks are skipped.
type Auditor struct {
	// Queued reports a whole-packet reference held in the queue named
	// where ("out", "arr", "pool", "window", ...).
	Queued func(where string, p *packet.Packet)
	// OPTEntry reports one occupied Output Port Table slot (NIFDY §2.2):
	// dst is the destination with an outstanding scalar packet.
	OPTEntry func(dst int)
	// DialogOut reports the sender-side bulk dialog, when active: the
	// destination and the unacknowledged packet count (bound W).
	DialogOut func(dst, outstanding int)
	// DialogIn reports one active receiver-side dialog slot (bound D):
	// the sending node, the next expected sequence number, and the count
	// of out-of-order packets parked in the window buffer.
	DialogIn func(slot, src, expected, buffered int)
	// WindowSlot reports one occupied window-buffer entry of dialog slot;
	// the packet is also reported via Queued("window", p).
	WindowSlot func(slot int, p *packet.Packet)
}

// Auditable is implemented by NICs that expose their state to the invariant
// monitors.
type Auditable interface {
	Audit(a Auditor)
}

// NIC is the processor's view of its network interface. A NIC owns its
// router.Port and ticks it; processors interact only through TrySend/Recv.
type NIC interface {
	sim.Ticker
	// Node reports the node number.
	Node() int
	// TrySend hands a data packet to the NIC. It reports false when the NIC
	// has no buffer space; the processor retries later (backpressure).
	TrySend(now sim.Cycle, p *packet.Packet) bool
	// Recv pops the next data packet for the processor, if any. Protocol
	// packets (acks) are consumed internally and never surface here.
	Recv(now sim.Cycle) (*packet.Packet, bool)
	// Pending reports data packets ready for the processor.
	Pending() int
	// Idle reports whether the NIC holds no unsent or unacknowledged work
	// (used for drain/termination checks).
	Idle() bool
	// ObserveProc registers the processor's activity, which the NIC wakes,
	// from its own Tick, on two edges: a data packet became available to
	// Recv, and a TrySend that was refused may now succeed (buffer space was
	// freed). Between them they cover everything at the NIC a waiting
	// processor can be waiting for, so one refused by TrySend with nothing to
	// poll sleeps instead of retrying every cycle. The wake is for the current
	// cycle: a processor that ticks after its NIC acts on the edge in the
	// cycle it is raised. Wakes may be spurious (a NIC need not know whether
	// anything was refused); the processor re-checks and sleeps again.
	ObserveProc(a *sim.Activity)
	// Pool is the node's packet free-list: the NIC recycles protocol
	// packets it consumes internally, and the node's processor allocates
	// outgoing packets from — and retires accepted deliveries to — the same
	// list (see packet.Pool for the ownership rules).
	Pool() *packet.Pool
	// Stats exposes counters.
	Stats() *Stats
}

// BasicConfig sizes a Basic NIC.
type BasicConfig struct {
	// Node is the node number.
	Node int
	// OutBuf is the outgoing FIFO capacity in packets (minimum 1).
	OutBuf int
	// ArrBuf is the arrivals FIFO capacity in packets (minimum 1).
	ArrBuf int
	// Hooks observe packet events.
	Hooks Hooks
}

// Basic is a protocol-less NIC: a strict-FIFO outgoing queue and a bounded
// arrivals queue. With OutBuf=1, ArrBuf=2 it models the paper's "no NIFDY"
// baseline; sized to NIFDY's total buffering (at least half on the arrivals
// side, per §3) it models the "buffers only" baseline.
type Basic struct {
	Base
	out            ring.Deque[*packet.Packet]
	outBuf, arrBuf int
}

// NewBasic returns a Basic NIC attached to iface.
func NewBasic(cfg BasicConfig, iface router.Port) *Basic {
	return &Basic{
		Base:   NewBase(cfg.Node, cfg.Hooks, iface),
		outBuf: max(cfg.OutBuf, 1),
		arrBuf: max(cfg.ArrBuf, 1),
	}
}

// TrySend implements NIC.
func (b *Basic) TrySend(now sim.Cycle, p *packet.Packet) bool {
	if b.out.Len() >= b.outBuf {
		return false
	}
	b.out.PushBack(p)
	b.Admitted(now, p)
	return true
}

// Idle implements NIC.
func (b *Basic) Idle() bool { return b.out.Len() == 0 && b.Drained() }

// Audit implements Auditable: the Basic NIC holds packets only in its two
// FIFOs and has no protocol state.
func (b *Basic) Audit(a Auditor) {
	if a.Queued == nil {
		return
	}
	b.out.ForEach(func(p *packet.Packet) { a.Queued("out", p) })
	b.Arr.ForEach(func(p *packet.Packet) { a.Queued("arr", p) })
}

// Tick implements sim.Ticker: pump the iface, inject the FIFO head if its
// class slot is free (head-of-line blocking is intentional — it is what the
// NIFDY pool removes), and pull arrivals while the queue has room.
func (b *Basic) Tick(now sim.Cycle) {
	progress := b.Port.Pump(now)
	if head, ok := b.out.Front(); ok && b.Port.CanAccept(head.Class) {
		b.WakeOnRoom(b.out.Len(), b.outBuf)
		p, _ := b.out.PopFront()
		b.Port.StartSend(now, p)
		b.stats.Injected++
		progress = true
	}
	for b.Arr.Len() < b.arrBuf {
		p, ok := b.Port.Deliver(now, nil)
		if !ok {
			break
		}
		b.Arrive(p)
		progress = true
	}
	if b.out.Len() == 0 && b.Port.Quiet() {
		// Quiescent: nothing to inject, serialize, or deliver. Arrivals the
		// processor has not pulled (b.Arr) don't need ticks — Recv bypasses
		// the tick path — and the next fabric arrival re-wakes us.
		b.Activity().Sleep(b.Port.NextArrivalAt())
	} else if !progress {
		// Holding work but stuck this tick: nothing drained, injected, sent,
		// or delivered. Each stuck reason resolves only through an external
		// event — a flit arrival or credit return (wire observers), the busy
		// slot going free (the flow solver's wake, or BlockedBound for a
		// flit link), a processor TrySend or a queue-freeing Recv (both wake
		// explicitly) — so the state is a fixed point until then and
		// skipping to it is bit-identical.
		b.Activity().Sleep(b.Port.BlockedBound(now))
	} else {
		// Progress with work left: run next cycle. A flow port parks its
		// latch when sent into or delivered from, so staying awake is asked
		// for, not assumed.
		b.Activity().WakeAt(now + 1)
	}
}
