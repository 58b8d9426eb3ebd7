// Package nic defines the network interface controllers that sit between a
// processor and the fabric: the interface all NICs satisfy, and the
// protocol-less baselines the paper compares NIFDY against — a plain NIC
// with minimal buffering, and a "buffers only" NIC that has NIFDY's total
// buffering but none of its admission control (§3: "An option allows the
// NIFDY units to be included but disabled... This allows us to separate the
// effects of the NIFDY protocol itself from the benefit of simply having
// extra buffering").
//
// The NIFDY NIC itself lives in internal/core.
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
// be summed, for in-process and multi-process aggregation alike.
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
// router.Iface and ticks it; processors interact only through TrySend/Recv.
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
	cfg   BasicConfig
	iface router.Port
	out   ring.Deque[*packet.Packet]
	arr   ring.Deque[*packet.Packet]
	pool  packet.Pool
	proc  *sim.Activity // woken when a packet lands in arr or out stops being full
	stats Stats
}

// wakeProc raises a wake edge on the observing processor, if there is one.
func wakeProc(proc *sim.Activity) {
	if proc != nil {
		proc.Wake()
	}
}

// wakeOnRoom raises the "TrySend may now succeed" edge when a FIFO of
// capacity limit is about to pop one of its n packets: only a full FIFO can
// have refused anything.
func wakeOnRoom(proc *sim.Activity, n, limit int) {
	if n >= limit {
		wakeProc(proc)
	}
}

// NewBasic returns a Basic NIC attached to iface.
func NewBasic(cfg BasicConfig, iface router.Port) *Basic {
	if cfg.OutBuf < 1 {
		cfg.OutBuf = 1
	}
	if cfg.ArrBuf < 1 {
		cfg.ArrBuf = 1
	}
	return &Basic{cfg: cfg, iface: iface}
}

// Node implements NIC.
func (b *Basic) Node() int { return b.cfg.Node }

// Stats implements NIC.
func (b *Basic) Stats() *Stats { return &b.stats }

// Pool implements NIC. The Basic NIC neither creates nor consumes packets
// itself; the pool exists for the node's processor and workload.
func (b *Basic) Pool() *packet.Pool { return &b.pool }

// Activity implements sim.IdleTicker: the NIC sleeps when it has nothing to
// inject, nothing mid-flight in its iface, and nothing buffered to deliver.
func (b *Basic) Activity() *sim.Activity { return b.iface.Activity() }

// ObserveProc implements NIC.
func (b *Basic) ObserveProc(a *sim.Activity) { b.proc = a }

// TrySend implements NIC.
func (b *Basic) TrySend(now sim.Cycle, p *packet.Packet) bool {
	if b.out.Len() >= b.cfg.OutBuf {
		return false
	}
	p.CreatedAt = now
	b.out.PushBack(p)
	b.stats.Sent++
	b.cfg.Hooks.Send(p)
	// The processor handed us work mid-cycle (it ticks after the NIC): make
	// sure the scheduler runs the NIC next cycle, exactly as if it had
	// never slept.
	b.iface.Activity().Wake()
	return true
}

// Recv implements NIC.
func (b *Basic) Recv(now sim.Cycle) (*packet.Packet, bool) {
	p, ok := b.arr.PopFront()
	if !ok {
		return nil, false
	}
	p.AcceptedAt = now
	b.stats.Accepted++
	b.cfg.Hooks.Accept(p)
	// Freed arrivals space may let a NIC blocked on a full queue pull the
	// next reassembled packet: run it as if it had never slept.
	b.iface.Activity().Wake()
	return p, true
}

// Pending implements NIC.
func (b *Basic) Pending() int { return b.arr.Len() }

// Idle implements NIC.
func (b *Basic) Idle() bool {
	return b.out.Len() == 0 && b.arr.Len() == 0 &&
		b.iface.Sending(packet.Request) == nil && b.iface.Sending(packet.Reply) == nil &&
		b.iface.PendingFlits() == 0
}

// Audit implements Auditable: the Basic NIC holds packets only in its two
// FIFOs and has no protocol state.
func (b *Basic) Audit(a Auditor) {
	if a.Queued == nil {
		return
	}
	b.out.ForEach(func(p *packet.Packet) { a.Queued("out", p) })
	b.arr.ForEach(func(p *packet.Packet) { a.Queued("arr", p) })
}

// Tick implements sim.Ticker: pump the iface, inject the FIFO head if its
// class slot is free (head-of-line blocking is intentional — it is what the
// NIFDY pool removes), and pull arrivals while the queue has room.
func (b *Basic) Tick(now sim.Cycle) {
	progress := b.iface.Pump(now)
	if head, ok := b.out.Front(); ok && b.iface.CanAccept(head.Class) {
		wakeOnRoom(b.proc, b.out.Len(), b.cfg.OutBuf)
		p, _ := b.out.PopFront()
		b.iface.StartSend(now, p)
		b.stats.Injected++
		progress = true
	}
	for b.arr.Len() < b.cfg.ArrBuf {
		p, ok := b.iface.Deliver(now, nil)
		if !ok {
			break
		}
		b.arr.PushBack(p)
		progress = true
		wakeProc(b.proc)
	}
	if b.out.Len() == 0 && b.iface.Quiet() {
		// Quiescent: nothing to inject, serialize, or deliver. Arrivals the
		// processor has not pulled (b.arr) don't need ticks — Recv bypasses
		// the tick path — and the next fabric arrival re-wakes us.
		b.iface.Activity().Sleep(b.iface.NextArrivalAt())
	} else if !progress {
		// Holding work but stuck this tick: nothing drained, injected, sent,
		// or delivered. Each stuck reason resolves only through an external
		// event — a flit arrival or credit return (wire observers), the busy
		// output link going free (BlockedBound), a processor TrySend or a
		// queue-freeing Recv (both wake explicitly) — so the state is a fixed
		// point until then and skipping to it is bit-identical.
		b.iface.Activity().Sleep(b.iface.BlockedBound(now))
	}
}
