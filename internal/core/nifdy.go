// Package core implements the NIFDY unit — the paper's contribution: a
// network interface performing admission control at the network edge to
// provide end-to-end flow control, congestion avoidance, and hardware
// in-order delivery (§2).
//
// The unit is tuned by four parameters (§2.1):
//
//	O — outstanding packet table (OPT) size: the global cap on
//	    unacknowledged scalar packets, one CAM entry per destination.
//	B — outgoing buffer pool size: waiting packets, ranked per destination
//	    by the rank/eligibility unit to remove head-of-line blocking.
//	D — incoming bulk dialogs a receiver maintains simultaneously.
//	W — receiver window (and reorder buffer) size per bulk dialog.
//
// Scalar mode allows one outstanding packet per destination; every scalar
// packet is acknowledged individually, by default when the processor accepts
// it (the paper found acking on arrival "surprisingly less effective" —
// footnote 2; both strategies are implemented). Bulk mode is requested by a
// header bit, granted by the receiver in an ack, and run as a sliding window
// with cumulative acks every W/2 packets; the receiver reorders out-of-order
// arrivals in W hardware buffers and streams in-order packets through. A
// dialog ends one way only: its last packet carries the bulk-exit bit, and
// the receiver frees the slot once that packet has drained.
//
// The §6 extensions are implemented behind configuration flags: acks
// piggybacked on reverse-direction data, no-ack packets that bypass the
// protocol, and retransmission with duplicate detection for lossy networks.
package core

import (
	"fmt"

	"nifdy/internal/nic"
	"nifdy/internal/packet"
	"nifdy/internal/router"
	"nifdy/internal/sim"
)

// Config parameterizes a NIFDY unit.
type Config struct {
	// Node is the node number.
	Node int
	// O is the OPT size; zero selects 8 (§4.2: "eight is usually more than
	// sufficient").
	O int
	// B is the outgoing buffer pool size; zero selects 8.
	B int
	// D is the number of incoming bulk dialogs; zero selects 1. Negative
	// disables bulk dialogs entirely (the paper's best butterfly setting).
	D int
	// W is the bulk window size in packets; zero selects 4. Must be even.
	W int
	// AckOnArrival acknowledges scalar packets when they enter the arrivals
	// FIFO instead of when the processor accepts them (footnote 2 ablation).
	AckOnArrival bool
	// PerPacketBulkAcks acknowledges every bulk packet instead of combining
	// one ack per W/2 packets (§2.4.2 ablation).
	PerPacketBulkAcks bool
	// Piggyback enables combining pending scalar acks with reverse-direction
	// data packets (§6.1). A plain scalar ack is held up to piggybackDelay
	// cycles waiting for a data packet to the same destination to carry it;
	// it goes out standalone on expiry.
	Piggyback bool
	// Retransmit enables the lossy-network extension (§6.2): per-slot timers
	// and buffers, and duplicate detection.
	Retransmit bool
	// RetransmitTimeout is the retransmission timer in cycles; zero selects
	// 4096.
	RetransmitTimeout sim.Cycle
	// IDs supplies packet IDs for generated acks; a private source is used
	// when nil.
	IDs *packet.IDSource
	// Hooks observe packet events.
	Hooks nic.Hooks
	// Mutate injects deliberate protocol violations for invariant-monitor
	// validation (test-only; see Mutations).
	Mutate Mutations
}

// Mutations are deliberate protocol-enforcement breaks used by the
// internal/check mutation tests: each knob disables exactly one guard so the
// corresponding invariant monitor can be shown to trip. They must never be
// set outside tests. One-shot knobs apply once; gate knobs stay off for the
// whole run.
type Mutations struct {
	// DupScalar ignores the rank==0 eligibility gate, sending a second
	// scalar packet to a destination that already has one outstanding
	// (breaks per-destination scalar exclusivity, §2.1.1).
	DupScalar bool
	// OPTOverflow ignores the OPT size bound O (§2.1.1).
	OPTOverflow bool
	// ExtraDialog allocates one receiver dialog slot beyond D (§2.1.2).
	ExtraDialog bool
	// WideWindow ignores the sender-side window bound W (§2.1.2).
	WideWindow bool
	// ReorderDrain pushes one drained bulk packet ahead of an earlier
	// same-sender packet already queued for the processor, breaking
	// hardware in-order delivery (§2.1.2). One-shot.
	ReorderDrain bool
	// LosePacket silently discards the first packet handed to TrySend
	// (end-to-end loss). One-shot.
	LosePacket bool
	// DupDeliver pushes the first accepted scalar arrival into the
	// arrivals FIFO twice (end-to-end duplication). One-shot.
	DupDeliver bool
	// RecycleLiveAck recycles a consumed ack into the free-list while
	// also delivering it to the processor — the live-after-Put bug the
	// recycle-safety census must catch. One-shot.
	RecycleLiveAck bool
}

const (
	// arrBuf is the arrivals FIFO capacity in packets (§3: "with the NIFDY
	// protocol, the capacity of the arrivals queue is at most two packets").
	arrBuf = 2
	// piggybackDelay is the maximum hold time for a piggybackable ack: just
	// past the receive+send software overhead (60+40), so an application
	// reply generated by the acked packet can still catch it.
	piggybackDelay sim.Cycle = 150
)

func (c *Config) defaults() {
	if c.O == 0 {
		c.O = 8
	}
	if c.B == 0 {
		c.B = 8
	}
	if c.D == 0 {
		c.D = 1
	}
	if c.D < 0 {
		c.D = 0
	}
	if c.W == 0 {
		c.W = 4
	}
	if c.W%2 != 0 {
		c.W++
	}
	if c.RetransmitTimeout == 0 {
		c.RetransmitTimeout = 4096
	}
	if c.IDs == nil {
		c.IDs = &packet.IDSource{}
	}
}

// TotalBuffers reports the unit's packet-buffer budget (pool + arrivals +
// reorder), used to size the fair "buffers only" baseline (§3).
func (c Config) TotalBuffers() int {
	c.defaults()
	return c.B + arrBuf + c.D*c.W
}

// poolEntry is one waiting packet with the header fields the pool scans
// read copied beside it, so TrySend, decRanks, waitingTo and inject walk one
// contiguous array and load no packet.
type poolEntry struct {
	p     *packet.Packet
	rank  int
	dst   int32
	class packet.Class
	noAck bool
}

func newPoolEntry(p *packet.Packet, rank int) poolEntry {
	return poolEntry{p: p, rank: rank, dst: int32(p.Dst), class: p.Class, noAck: p.NoAck}
}

// dialogOut is the sender side of the (single) outgoing bulk dialog.
type dialogOut struct {
	active   bool
	dst      int
	num      int
	nextSeq  int
	cumAcked int
	exiting  bool
	exitSeq  int
}

func (d *dialogOut) outstanding() int { return d.nextSeq - 1 - d.cumAcked }

// dialogIn is one receiver-side dialog slot. The reorder window is a fixed
// W-slot array indexed seq%W — the window invariant (buffered seqs lie in
// [expected, expected+W)) makes the mapping collision-free, and reusing the
// array across grants keeps dialog turnover allocation-free.
type dialogIn struct {
	active        bool
	src           int
	expected      int
	buf           []*packet.Packet // W slots, indexed seq % W
	buffered      int              // occupied window slots
	movedSinceAck int
	exitPending   bool
}

// open (re)activates the slot for a new dialog from src, reusing the window
// array (empty by invariant whenever the slot is grantable).
func (d *dialogIn) open(src int) {
	d.active = true
	d.src = src
	d.expected = 0
	d.movedSinceAck = 0
	d.exitPending = false
}

// close deactivates the slot. The window must already be drained.
func (d *dialogIn) close() {
	d.active = false
	d.src = 0
	d.expected = 0
	d.movedSinceAck = 0
	d.exitPending = false
}

// ackEntry is a queued outgoing acknowledgment.
type ackEntry struct {
	dst    int
	grant  packet.GrantKind
	dialog int
	bulk   bool
	cum    int
	// due delays plain scalar acks when piggybacking is enabled; zero means
	// send at the first opportunity.
	due sim.Cycle
}

// piggybackable reports whether a data packet may carry this ack.
func (e ackEntry) piggybackable() bool {
	return !e.bulk && e.grant == packet.GrantNone
}

// dupState is the receiver's per-source duplicate-detection state (§6.2):
// the alternating bit of the last packet seen, and whether that packet has
// been accepted (and therefore acknowledged) by the processor. A duplicate
// of an unaccepted packet is dropped silently — its ack will come from the
// acceptance of the original; re-acking early would break the ack-on-accept
// flow control.
type dupState struct {
	seen  bool
	bit   bool
	acked bool
}

// retxEntry is a retransmission timer+buffer (§6.2).
type retxEntry struct {
	dst      int
	seq      int // -1 for scalar
	deadline sim.Cycle
	fire     bool // timer expired; retransmission pending
	copy     packet.Packet
}

// NIFDY is the NIFDY network interface unit. It implements nic.NIC.
type NIFDY struct {
	// Base holds the port, the arrivals FIFO, the counters and the node's
	// packet free-list: acks the unit consumes and duplicates it drops are
	// recycled there, and the node's processor allocates from / retires to
	// the same list (see packet.Pool).
	nic.Base
	cfg Config

	pool []poolEntry
	opt  []int // destinations with an outstanding scalar packet
	ackQ []ackEntry
	dout dialogOut
	din  []dialogIn

	// acceptFn caches the acceptData method value: binding it fresh at every
	// Deliver call would allocate a closure per tick.
	acceptFn func(*packet.Packet) bool

	retx      []retxEntry
	dupBitOut map[int]bool // next duplicate-detection bit per destination
	dupBitIn  map[int]dupState
	// lastExit records, per source, the final sequence number of that
	// source's most recently closed dialog, so stale retransmissions after
	// a lost final ack can be re-acknowledged (lossy networks only).
	lastExit map[int]int

	// One-shot latches for the test-only Mutate knobs.
	mutReorderDone, mutLoseDone, mutDupDone, mutRecycleDone bool
}

// New returns a NIFDY unit attached to iface.
func New(cfg Config, iface router.Port) *NIFDY {
	cfg.defaults()
	u := &NIFDY{Base: nic.NewBase(cfg.Node, cfg.Hooks, iface), cfg: cfg}
	slots := cfg.D
	if cfg.Mutate.ExtraDialog {
		slots++ // injected fault: one grantable slot beyond the D bound
	}
	u.din = make([]dialogIn, slots)
	for i := range u.din {
		u.din[i].buf = make([]*packet.Packet, cfg.W)
	}
	u.acceptFn = u.acceptData
	if cfg.Retransmit {
		u.dupBitOut = map[int]bool{}
		u.dupBitIn = map[int]dupState{}
		u.lastExit = map[int]int{}
	}
	return u
}

// Params reports the unit's effective (O, B, D, W).
func (u *NIFDY) Params() (o, b, d, w int) { return u.cfg.O, u.cfg.B, u.cfg.D, u.cfg.W }

// TrySend implements nic.NIC: insert a packet into the outgoing pool if a
// buffer is free. The rank/eligibility unit assigns the packet's rank: the
// number of waiting and outstanding packets ahead of it for the same
// destination (§2.1.1). No-ack packets (§6.1) bypass ranking entirely.
func (u *NIFDY) TrySend(now sim.Cycle, p *packet.Packet) bool {
	if len(u.pool) >= u.cfg.B {
		return false
	}
	if u.cfg.Mutate.LosePacket && !u.mutLoseDone {
		// Injected fault: accept the packet and drop it on the floor.
		u.mutLoseDone = true
		u.Stats().Sent++
		u.Hooks.Send(p)
		u.Pool().Put(p)
		return true
	}
	rank := 0
	if !p.NoAck {
		rank = u.outstandingTo(p.Dst) + u.waitingTo(p.Dst)
	}
	u.pool = append(u.pool, newPoolEntry(p, rank))
	u.Admitted(now, p)
	return true
}

// outstandingTo reports unacknowledged packets in flight to dst.
func (u *NIFDY) outstandingTo(dst int) int {
	if u.dout.active && u.dout.dst == dst {
		return u.dout.outstanding()
	}
	if u.inOPT(dst) {
		return 1
	}
	return 0
}

func (u *NIFDY) inOPT(dst int) bool {
	for _, d := range u.opt {
		if d == dst {
			return true
		}
	}
	return false
}

//lint:allow(hotalloc) amortized opt-list slice growth; steady-state capacity is reached during warm-up
func (u *NIFDY) removeOPT(dst int) bool {
	for i, d := range u.opt {
		if d == dst {
			u.opt = append(u.opt[:i], u.opt[i+1:]...)
			return true
		}
	}
	return false
}

// Recv implements nic.NIC: the processor accepts the next in-order packet.
// In the default ack-on-accept strategy this is the moment the scalar ack is
// generated (§2.1.1: "When it is accepted by the processor an ack is
// returned").
func (u *NIFDY) Recv(now sim.Cycle) (*packet.Packet, bool) {
	p, ok := u.Base.Recv(now)
	if !ok {
		return nil, false
	}
	if u.cfg.Retransmit && !p.NoAck && !p.InDialog() {
		if st, ok := u.dupBitIn[p.Src]; ok && st.bit == p.Dup {
			st.acked = true
			u.dupBitIn[p.Src] = st
		}
	}
	// Base.Recv woke the unit, which must tick as if it had never slept:
	// accepting may queue an ack, and always frees arrivals space that a
	// reorder buffer or a waiting eject-side packet can move into.
	if !p.NoAck && !p.InDialog() && !u.cfg.AckOnArrival {
		u.enqueueScalarAck(now, p)
	}
	return p, true
}

// enqueueScalarAck queues the per-packet ack for a scalar packet, deciding
// the bulk-dialog grant if the packet requested one. With piggybacking on,
// plain acks are held briefly in the hope a reverse data packet carries them.
//
//lint:allow(hotalloc) amortized ackQ slice growth; steady-state capacity is reached during warm-up
func (u *NIFDY) enqueueScalarAck(now sim.Cycle, p *packet.Packet) {
	e := ackEntry{dst: p.Src, grant: packet.GrantNone, dialog: packet.NoDialog}
	if p.BulkReq {
		e.grant, e.dialog = u.decideGrant(p.Src)
	}
	if u.cfg.Piggyback && e.piggybackable() {
		e.due = now + piggybackDelay
	}
	u.ackQ = append(u.ackQ, e)
}

// decideGrant allocates (or re-finds) a dialog slot for src, rejecting the
// request when all D slots are busy.
func (u *NIFDY) decideGrant(src int) (packet.GrantKind, int) {
	for i := range u.din {
		if u.din[i].active && u.din[i].src == src {
			return packet.Granted, i // duplicate request: re-grant same slot
		}
	}
	for i := range u.din {
		if !u.din[i].active {
			u.din[i].open(src)
			u.Stats().BulkGrants++
			return packet.Granted, i
		}
	}
	u.Stats().BulkRejects++
	return packet.Rejected, packet.NoDialog
}

// Idle implements nic.NIC.
func (u *NIFDY) Idle() bool {
	if len(u.pool) > 0 || len(u.ackQ) > 0 || len(u.opt) > 0 || len(u.retx) > 0 {
		return false
	}
	if u.dout.active && u.dout.outstanding() > 0 {
		return false
	}
	for i := range u.din {
		if u.din[i].buffered > 0 {
			return false
		}
	}
	return u.Drained()
}

// Audit implements nic.Auditable: it reports every whole-packet reference the
// unit holds (pool, arrivals, reorder windows) and the protocol state the
// invariant monitors bound (OPT occupancy, dialog counts, window occupancy).
func (u *NIFDY) Audit(a nic.Auditor) {
	if a.Queued != nil {
		for _, e := range u.pool {
			a.Queued("pool", e.p)
		}
		u.Arr.ForEach(func(p *packet.Packet) { a.Queued("arr", p) })
	}
	if a.OPTEntry != nil {
		for _, d := range u.opt {
			a.OPTEntry(d)
		}
	}
	if a.DialogOut != nil && u.dout.active {
		a.DialogOut(u.dout.dst, u.dout.outstanding())
	}
	for i := range u.din {
		d := &u.din[i]
		if !d.active {
			continue
		}
		if a.DialogIn != nil {
			a.DialogIn(i, d.src, d.expected, d.buffered)
		}
		for _, p := range d.buf {
			if p == nil {
				continue
			}
			if a.Queued != nil {
				a.Queued("window", p)
			}
			if a.WindowSlot != nil {
				a.WindowSlot(i, p)
			}
		}
	}
}

// Tick implements sim.Ticker. Order within a cycle: pump the iface, consume
// protocol packets, pull data, drain reorder buffers, fire retransmission
// timers, then inject (acks take priority on the reply network).
func (u *NIFDY) Tick(now sim.Cycle) {
	progress := u.Port.Pump(now)
	for {
		a, ok := u.Port.Deliver(now, isAck)
		if !ok {
			break
		}
		u.handleAck(a)
		progress = true
	}
	for {
		p, ok := u.Port.Deliver(now, u.acceptFn)
		if !ok {
			break
		}
		u.handleData(now, p)
		progress = true
	}
	if u.drainDialogs(now) {
		progress = true
	}
	if u.cfg.Retransmit && u.fireTimers(now) {
		progress = true
	}
	// Data injection runs first so a data packet can absorb a pending ack
	// when piggybacking is enabled (§6.1); acks keep priority on the reply
	// network because inject skips reply-class data while acks are queued.
	if u.inject(now) {
		progress = true
	}
	if u.sendAck(now) {
		progress = true
	}
	u.sleep(now, progress)
}

// sleep parks the unit whenever ticking it again would be a no-op. Two cases
// qualify. Drained: nothing to inject (empty pool, no armed retransmission,
// no ack that is already due), nothing mid-serialization, nothing to deliver
// (no ejected flits, no reorder-buffer content) — outstanding-but-quiet
// state like OPT entries, an open dialog, or unpulled arrivals needs no
// ticks. Blocked: the unit holds work but this tick drained, moved, and sent
// nothing, so it sits at a fixed point; every way the block resolves is an
// external event — a flit or credit arrival (wire observers), the busy
// slot going free (the flow solver's wake, or BlockedBound for a flit
// link), a processor TrySend or Recv (both wake explicitly), an ack falling
// due, or a retransmission deadline — and waking exactly then is
// bit-identical to ticking through. Deferred timers
// (retransmission deadlines, held piggyback acks) bound both cases so they
// still fire on their exact cycle. A unit that stays awake asks for the next
// cycle (WakeAt): a flow port parks its latch when sent into or delivered
// from.
func (u *NIFDY) sleep(now sim.Cycle, progress bool) {
	act := u.Activity()
	if progress {
		// An active unit stays awake; only a fully drained one may sleep.
		if len(u.pool) > 0 || !u.Port.Quiet() {
			act.WakeAt(now + 1)
			return
		}
		for i := range u.din {
			if u.din[i].buffered > 0 {
				act.WakeAt(now + 1)
				return
			}
		}
	}
	next := u.Port.BlockedBound(now)
	for _, e := range u.ackQ {
		if e.due <= now {
			if progress {
				// A due ack survived sendAck (one ack injects per cycle):
				// stay awake to send it.
				act.WakeAt(now + 1)
				return
			}
			// No progress means the reply slot is busy; its freeing wakes us
			// or bounds BlockedBound, and a credit return wakes us.
			continue
		}
		if e.due < next {
			next = e.due
		}
	}
	for i := range u.retx {
		if u.retx[i].fire {
			if progress {
				act.WakeAt(now + 1) // a fired timer is waiting for an injection slot
				return
			}
			continue // blocked on a busy slot: its wake edge or BlockedBound covers it
		}
		if u.retx[i].deadline < next {
			next = u.retx[i].deadline
		}
	}
	act.Sleep(next)
}

// acceptData is the pull predicate: bulk packets always have reserved window
// buffers; scalar packets need arrivals space.
func (u *NIFDY) acceptData(p *packet.Packet) bool {
	if p.Kind == packet.Ack {
		return false
	}
	if p.InDialog() {
		return true
	}
	return u.Arr.Len() < arrBuf
}

func (u *NIFDY) handleAck(a *packet.Packet) {
	u.Stats().AcksReceived++
	u.processAckInfo(a.Src, a)
	// The ack dies here — processAckInfo keeps only values, never the
	// packet — so it recycles into this node's free-list.
	u.Pool().Put(a)
	if u.cfg.Mutate.RecycleLiveAck && !u.mutRecycleDone {
		// Injected fault: the recycled pointer stays reachable from the
		// arrivals FIFO, so the recycle-safety census must trip.
		u.mutRecycleDone = true
		u.Arrive(a) //lint:allow(poolsafe) injected fault: the recycle-safety census test needs exactly this live-after-Put bug
	}
}

// processAckInfo applies acknowledgment semantics carried by an ack packet
// (or by a piggybacked data packet, in which case only the scalar part
// applies).
func (u *NIFDY) processAckInfo(from int, a *packet.Packet) {
	if a != nil && a.BulkAck {
		if cum := int(a.CumSeq); u.dout.active && u.dout.dst == from && int(a.Dialog) == u.dout.num && cum > u.dout.cumAcked {
			n := cum - u.dout.cumAcked
			u.dout.cumAcked = cum
			u.decRanks(from, n)
			u.cancelRetx(from, cum)
			if u.dout.exiting && u.dout.cumAcked >= u.dout.exitSeq {
				u.dout = dialogOut{}
			}
		}
		return
	}
	if u.removeOPT(from) {
		u.decRanks(from, 1)
		u.cancelRetx(from, -1)
	}
	// A rejected request needs nothing here: the software layer keeps the
	// request bit set on subsequent packets, which stay scalar.
	if a != nil && a.Grant == packet.Granted && !u.dout.active {
		u.dout = dialogOut{active: true, dst: from, num: int(a.Dialog), cumAcked: -1}
	}
}

// isAck is the ack-delivery predicate, hoisted to package level so Tick
// passes a static func value instead of allocating a closure each cycle.
func isAck(p *packet.Packet) bool { return p.Kind == packet.Ack }

// decRanks lowers the rank of every pool packet for dst by n: n packets to
// dst are no longer ahead of them. No-ack packets are not ranked.
func (u *NIFDY) decRanks(dst, n int) {
	for i := range u.pool {
		if e := &u.pool[i]; int(e.dst) == dst && !e.noAck {
			e.rank -= n
			if e.rank < 0 {
				panic(fmt.Sprintf("nifdy %d: negative rank for %v", u.Node(), e.p))
			}
		}
	}
}

func (u *NIFDY) handleData(now sim.Cycle, p *packet.Packet) {
	if p.PiggyAck {
		u.Stats().AcksReceived++
		u.processAckInfo(p.Src, nil)
	}
	if p.InDialog() {
		u.handleBulkData(p)
		return
	}
	if u.cfg.Retransmit && !p.NoAck {
		st := u.dupBitIn[p.Src]
		if st.seen && st.bit == p.Dup {
			u.Stats().Duplicates++
			if st.acked {
				// Duplicate of an accepted packet (its ack was lost):
				// discard and re-ack so the sender stops retransmitting
				// (§6.2). Re-deciding the grant is idempotent and repairs a
				// lost grant ack.
				u.enqueueScalarAck(now, p)
			}
			// Otherwise the original is still waiting in the arrivals FIFO:
			// drop the copy silently; accepting the original produces the
			// one true ack. Dropped means dead: recycle it.
			u.Pool().Put(p)
			return
		}
		u.dupBitIn[p.Src] = dupState{seen: true, bit: p.Dup}
	}
	u.Arrive(p)
	if u.cfg.Mutate.DupDeliver && !u.mutDupDone {
		// Injected fault: the same packet reaches the processor twice.
		u.mutDupDone = true
		u.Arrive(p)
	}
	if !p.NoAck && u.cfg.AckOnArrival {
		u.enqueueScalarAck(now, p)
		if u.cfg.Retransmit {
			// With ack-on-arrival the ack exists now, so duplicates can be
			// re-acked immediately.
			if st, ok := u.dupBitIn[p.Src]; ok && st.bit == p.Dup {
				st.acked = true
				u.dupBitIn[p.Src] = st
			}
		}
	}
}

//lint:allow(hotalloc) amortized ackQ/arrival slice growth; steady-state capacity is reached during warm-up
func (u *NIFDY) handleBulkData(p *packet.Packet) {
	dlg, seq := int(p.Dialog), int(p.Seq)
	if dlg >= len(u.din) {
		panic(fmt.Sprintf("nifdy %d: dialog %d out of range", u.Node(), dlg))
	}
	d := &u.din[dlg]
	if !d.active || d.src != p.Src {
		// Stale packet for a closed/reassigned dialog. With losses it
		// happens when the final cumulative ack was dropped and the sender
		// keeps retransmitting (§6.2). Otherwise: protocol violation.
		if !u.cfg.Retransmit {
			panic(fmt.Sprintf("nifdy %d: bulk packet %v for inactive dialog", u.Node(), p))
		}
		u.Stats().Duplicates++
		if cum, ok := u.lastExit[p.Src]; ok && seq <= cum {
			// Everything through the closed dialog's exit was delivered;
			// re-ack so the sender's timers stop.
			u.ackQ = append(u.ackQ, ackEntry{dst: p.Src, bulk: true, dialog: dlg,
				cum: cum, grant: packet.GrantNone})
		}
		u.Pool().Put(p)
		return
	}
	if seq < d.expected {
		// Duplicate (retransmission raced the ack): discard and re-ack the
		// current cumulative position.
		u.Stats().Duplicates++
		u.ackQ = append(u.ackQ, ackEntry{dst: p.Src, bulk: true, dialog: dlg,
			cum: d.expected - 1, grant: packet.GrantNone})
		u.Pool().Put(p)
		return
	}
	if seq >= d.expected+u.cfg.W {
		panic(fmt.Sprintf("nifdy %d: bulk seq %d beyond window (expected %d, W %d)",
			u.Node(), seq, d.expected, u.cfg.W))
	}
	if d.buf[seq%u.cfg.W] != nil {
		// In-window duplicate: same discard-and-re-ack treatment.
		u.Stats().Duplicates++
		u.ackQ = append(u.ackQ, ackEntry{dst: p.Src, bulk: true, dialog: dlg,
			cum: d.expected - 1, grant: packet.GrantNone})
		u.Pool().Put(p)
		return
	}
	d.buf[seq%u.cfg.W] = p
	d.buffered++
}

// drainDialogs streams in-order bulk packets from reorder buffers into the
// arrivals FIFO, emitting the combined ack each time half a window has moved
// (§2.4.2), and tears the dialog down when its exit packet moves out. It
// reports whether any packet moved.
//
//lint:allow(hotalloc) amortized arrival slice growth; steady-state capacity is reached during warm-up
func (u *NIFDY) drainDialogs(now sim.Cycle) bool {
	moved := false
	for i := range u.din {
		d := &u.din[i]
		if !d.active || d.buffered == 0 {
			continue
		}
		for u.Arr.Len() < arrBuf {
			slot := d.expected % u.cfg.W
			p := d.buf[slot]
			if p == nil {
				break
			}
			d.buf[slot] = nil
			d.buffered--
			d.expected++
			d.movedSinceAck++
			if q, ok := u.Arr.Front(); u.cfg.Mutate.ReorderDrain && !u.mutReorderDone &&
				ok && q.Src == d.src && q.Kind == packet.Data {
				// Injected fault: the drained packet jumps the arrivals queue
				// past an earlier packet from the same sender, so the
				// processor accepts the pair inverted. Window accounting
				// stays correct — only delivery order is wrong.
				u.mutReorderDone = true
				u.Arr.PushFront(p)
				u.WakeProc()
			} else {
				u.Arrive(p)
			}
			moved = true
			ackDue := d.movedSinceAck >= u.cfg.W/2 || u.cfg.PerPacketBulkAcks
			if p.BulkExit {
				d.exitPending = true
			}
			if ackDue || d.exitPending {
				u.ackQ = append(u.ackQ, ackEntry{dst: d.src, bulk: true, dialog: i,
					cum: d.expected - 1, grant: packet.GrantNone})
				d.movedSinceAck = 0
			}
			if d.exitPending && d.buffered == 0 {
				if u.cfg.Retransmit {
					u.lastExit[d.src] = d.expected - 1
				}
				d.close()
				break
			}
		}
	}
	return moved
}

// sendAck injects the oldest queued ack if the reply-network slot is free,
// reporting whether one went out. Acks are single-flit packets on the reply
// network (§2: "The ack packets share the same network as the data packets").
//
//lint:allow(hotalloc) amortized ackQ compaction append into existing backing array
func (u *NIFDY) sendAck(now sim.Cycle) bool {
	if len(u.ackQ) == 0 || !u.Port.CanAccept(packet.Reply) {
		return false
	}
	idx := -1
	for i, e := range u.ackQ {
		if e.due <= now {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	e := u.ackQ[idx]
	u.ackQ = append(u.ackQ[:idx], u.ackQ[idx+1:]...)
	// Acks are born from the free-list; they die (and recycle) at the
	// receiving unit's handleAck.
	a := u.Pool().Get()
	a.ID = u.cfg.IDs.Next()
	a.Src = u.Node()
	a.Dst = e.dst
	a.Kind = packet.Ack
	a.Class = packet.Reply
	a.Words = 1
	a.Dialog = int32(e.dialog)
	a.Grant = e.grant
	a.BulkAck = e.bulk
	a.CumSeq = int32(e.cum)
	u.Port.StartSend(now, a)
	u.Stats().AcksSent++
	return true
}

// inject sends eligible packets — retransmissions first, then the oldest
// eligible pool packet per free class slot — reporting whether anything was
// handed to the iface. Nothing it does before its one send changes a slot,
// so it asks the port about each class once.
func (u *NIFDY) inject(now sim.Cycle) bool {
	if u.cfg.Retransmit && u.injectRetx(now) {
		return true
	}
	if len(u.pool) == 0 {
		return false
	}
	var free [packet.NumClasses]bool
	for c := range free {
		free[c] = u.Port.CanAccept(packet.Class(c))
	}
	if free == ([packet.NumClasses]bool{}) {
		return false
	}
	for i := range u.pool {
		e := &u.pool[i]
		if !free[e.class] {
			continue
		}
		if e.class == packet.Reply && u.ackBlocksReplyData(now, int(e.dst)) {
			continue // a due ack this packet cannot absorb owns the slot
		}
		if e.noAck {
			// Protocol-bypass packets (§6.1) send as soon as a slot is free.
			u.sendScalar(now, i)
			return true
		}
		if u.dout.active && u.dout.dst == int(e.dst) {
			if u.dout.exiting {
				continue // wait for the dialog to close, preserving order
			}
			if u.cfg.Mutate.WideWindow ||
				(e.rank < u.cfg.W && u.dout.outstanding() < u.cfg.W) {
				u.sendBulk(now, i)
				return true
			}
			continue
		}
		if (e.rank == 0 || u.cfg.Mutate.DupScalar) &&
			(len(u.opt) < u.cfg.O || u.cfg.Mutate.OPTOverflow) {
			u.sendScalar(now, i)
			return true
		}
	}
	return false
}

//lint:allow(hotalloc) in-place removal append never exceeds the backing array
func (u *NIFDY) removePool(i int) {
	u.pool = append(u.pool[:i], u.pool[i+1:]...)
	if len(u.pool) == u.cfg.B-1 {
		// The pool was full, the one state TrySend refuses in: the processor
		// may be asleep behind a refused send (§4.5), and there is room now.
		u.WakeProc()
	}
}

//lint:allow(hotalloc) amortized opt-list slice growth; steady-state capacity is reached during warm-up
func (u *NIFDY) sendScalar(now sim.Cycle, i int) {
	p := u.pool[i].p
	u.removePool(i)
	if p.BulkReq && (u.dout.active || u.cfg.D == 0) {
		// One outgoing dialog at a time (§2.1): suppress further requests
		// while one is active (or when dialogs are disabled).
		p.BulkReq = false
	}
	if !p.NoAck {
		u.opt = append(u.opt, p.Dst)
		if u.cfg.Retransmit {
			p.Dup = u.dupBitOut[p.Dst]
			u.dupBitOut[p.Dst] = !p.Dup
			u.armRetx(now, p, -1)
		}
	}
	u.attachPiggyback(p)
	u.Port.StartSend(now, p)
	u.Stats().Injected++
}

// waitingTo counts pool packets bound for dst (excluding no-ack traffic).
func (u *NIFDY) waitingTo(dst int) int {
	n := 0
	for _, e := range u.pool {
		if int(e.dst) == dst && !e.noAck {
			n++
		}
	}
	return n
}

func (u *NIFDY) sendBulk(now sim.Cycle, i int) {
	p := u.pool[i].p
	u.removePool(i)
	seq := u.dout.nextSeq
	p.Dialog = int32(u.dout.num)
	p.Seq = int32(seq)
	u.dout.nextSeq++
	if !p.BulkReq {
		// The software layer sets the request bit on every packet of a bulk
		// message except the last; its absence marks the end of the
		// transfer (§2.1.2: bulk exit bit in the header of the last packet).
		p.BulkExit = true
		u.dout.exiting = true
		u.dout.exitSeq = seq
	}
	p.BulkReq = false
	if u.cfg.Retransmit {
		u.armRetx(now, p, seq)
	}
	u.attachPiggyback(p)
	u.Port.StartSend(now, p)
	u.Stats().Injected++
	u.Stats().BulkPackets++
}

// ackBlocksReplyData reports whether a due ack that a reply-class data
// packet to dst cannot carry is waiting for the reply-network slot; acks
// keep priority over reply-class data so the protocol never starves behind
// application replies.
func (u *NIFDY) ackBlocksReplyData(now sim.Cycle, dst int) bool {
	for _, e := range u.ackQ {
		if e.due > now {
			continue
		}
		if u.cfg.Piggyback && e.piggybackable() && e.dst == dst {
			continue // the data packet will absorb it
		}
		return true
	}
	return false
}

// attachPiggyback folds a pending plain scalar ack for p.Dst into p (§6.1).
//
//lint:allow(hotalloc) amortized ackQ compaction append into existing backing array
func (u *NIFDY) attachPiggyback(p *packet.Packet) {
	if !u.cfg.Piggyback {
		return
	}
	for i, e := range u.ackQ {
		if e.dst == p.Dst && !e.bulk && e.grant == packet.GrantNone {
			p.PiggyAck = true
			u.ackQ = append(u.ackQ[:i], u.ackQ[i+1:]...)
			u.Stats().AcksSent++
			return
		}
	}
}

// --- Retransmission extension (§6.2) ---

//lint:allow(hotalloc) amortized retx-timer slice growth; steady-state capacity is reached during warm-up
func (u *NIFDY) armRetx(now sim.Cycle, p *packet.Packet, seq int) {
	u.retx = append(u.retx, retxEntry{dst: p.Dst, seq: seq,
		deadline: now + u.cfg.RetransmitTimeout, copy: *p})
}

//lint:allow(hotalloc) in-place retx filter append never exceeds the backing array
func (u *NIFDY) cancelRetx(dst, cum int) {
	if !u.cfg.Retransmit {
		return
	}
	kept := u.retx[:0]
	for _, e := range u.retx {
		if e.dst == dst && ((cum < 0 && e.seq < 0) || (cum >= 0 && e.seq >= 0 && e.seq <= cum)) {
			continue
		}
		kept = append(kept, e)
	}
	for i := len(kept); i < len(u.retx); i++ {
		u.retx[i] = retxEntry{}
	}
	u.retx = kept
}

// fireTimers rearms and requeues expired retransmissions, reporting whether
// any timer fired this tick.
func (u *NIFDY) fireTimers(now sim.Cycle) bool {
	fired := false
	for i := range u.retx {
		if u.retx[i].deadline <= now {
			u.retx[i].deadline = now + u.cfg.RetransmitTimeout
			u.retx[i].copy.Retransmit = true
			u.retx[i].fire = true
			fired = true
		}
	}
	return fired
}

// injectRetx sends one pending retransmission; reports whether it consumed
// the injection opportunity.
func (u *NIFDY) injectRetx(now sim.Cycle) bool {
	for i := range u.retx {
		if !u.retx[i].fire {
			continue
		}
		cp := u.retx[i].copy // clone: the previous instance's flits were consumed
		if !u.Port.CanAccept(cp.Class) {
			return false
		}
		u.retx[i].fire = false
		p := cp
		u.Port.StartSend(now, &p)
		u.Stats().Retransmits++
		return true
	}
	return false
}
