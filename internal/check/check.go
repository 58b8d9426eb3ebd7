// Package check implements runtime invariant monitors — protocol oracles
// that verify, while a simulation runs, the properties the NIFDY paper
// states or assumes (§2.1–§2.4) and the conservation laws of the simulated
// substrate. The monitors attach to the engine's step hook, the one point
// in a cycle where every shard is quiescent and all cross-shard staging is
// merged, so a single goroutine can take a consistent global census without
// synchronization.
//
// Two monitor families run each sweep:
//
// Protocol monitors (per NIFDY unit, via nic.Auditable):
//   - scalar-exclusive: at most one outstanding scalar packet per
//     destination (§2.1.1 — the OPT is keyed by destination).
//   - opt-bound: OPT occupancy never exceeds O.
//   - dialog-bound: at most D receiver dialogs active, at most one per
//     sender (§2.1.2).
//   - window-bound: sender outstanding ≤ W; reorder-buffer occupancy ≤ W;
//     every buffered packet's sequence lies in [expected, expected+W).
//   - in-order: packets between a (src, dst) pair are accepted in the
//     order they were sent (§2.1.2's central guarantee).
//   - no-loss-dup: every sent packet is accepted exactly once (sequence
//     accounting over the NIC send/accept hooks).
//
// Substrate monitors (global census over routers, interfaces, and wires):
//   - flit-conservation: every injected flit is in exactly one place
//     (router buffer, wire, or ejection buffer) until delivered or dropped,
//     and no (packet, index) flit exists twice.
//   - credit-conservation: per channel and virtual channel, credits held +
//     flits in flight + credits in flight + downstream occupancy equals the
//     initial grant.
//   - vc-capacity: buffer occupancy never exceeds capacity and credit
//     counters stay within [0, initial] — the negative-credit check fires
//     before the substrate's own overflow panics can.
//   - recycle-safety: no packet is reachable from two places at once, and
//     no free-listed packet is still live (queue, window, or fabric).
//
// Monitors are validated by mutation: internal/core and internal/router
// carry test-only fault knobs (core.Mutations, router.IfaceMutations), and
// the tests in this package prove each knob trips its monitor.
package check

import (
	"fmt"

	"nifdy/internal/nic"
	"nifdy/internal/node"
	"nifdy/internal/packet"
	"nifdy/internal/sim"
	"nifdy/internal/topo"
)

// Monitor identifiers, as they appear in Violation.Monitor.
const (
	MonScalarExclusive    = "scalar-exclusive"
	MonOPTBound           = "opt-bound"
	MonDialogBound        = "dialog-bound"
	MonWindowBound        = "window-bound"
	MonInOrder            = "in-order"
	MonLossDup            = "no-loss-dup"
	MonFlitConservation   = "flit-conservation"
	MonCreditConservation = "credit-conservation"
	MonVCCapacity         = "vc-capacity"
	MonRecycleSafety      = "recycle-safety"
	MonPFCPause           = "pfc-pause"
	MonDCQCNRate          = "dcqcn-rate"
)

// Violation is one observed invariant breach.
type Violation struct {
	// Cycle is the engine cycle at which the sweep observed the breach.
	Cycle sim.Cycle
	// Monitor is the Mon* identifier.
	Monitor string
	// Node is the node the breach is attributed to, or -1 for global
	// (fabric-wide) invariants.
	Node int
	// Detail is a human-readable description.
	Detail string
}

func (v Violation) String() string {
	where := "global"
	if v.Node >= 0 {
		where = fmt.Sprintf("node %d", v.Node)
	}
	return fmt.Sprintf("cycle %d [%s] %s: %s", v.Cycle, v.Monitor, where, v.Detail)
}

// Options configures a Checker.
type Options struct {
	// Interval is the census-sweep cadence in cycles; values below 1 mean
	// every cycle. Sequence accounting always drains every cycle (it is
	// cheap and must observe events in order).
	Interval sim.Cycle
	// Sequence enables end-to-end loss/duplication accounting over the NIC
	// send/accept hooks. It keys in-flight packets by pointer, so it must
	// stay off when the protocol clones packets (retransmission, dialog
	// takeover) or the fabric drops them (DropProb) — harness.Build gates
	// this automatically.
	Sequence bool
	// ByID keys the sequence accounting by packet ID instead of pointer, so
	// retransmission clones — which carry the original's ID — account as one
	// logical packet: sent once (the send hook fires at TrySend only, not on
	// resends) and accepted exactly once (the §6.2 dup bit suppresses
	// duplicate deliveries before the accept hook fires). This keeps the
	// no-loss-dup monitor armed over a lossy fabric with Retransmit on.
	ByID bool
	// InOrder additionally checks that each (src, dst) pair's packets are
	// accepted in send order. Meaningful for NIFDY NICs on any fabric and
	// for plain NICs on in-order fabrics. Implies the Sequence event
	// tracking machinery (but not the end-of-run loss check).
	InOrder bool
	// OnViolation, when set, receives each violation instead of the default
	// action (panic on first breach).
	OnViolation func(Violation)
	// Local restricts sweeps to the per-NIC protocol monitors and the
	// NIC/processor recycle-safety census, skipping the global substrate
	// census (flit/credit conservation, vc-capacity, wire walks). Set in
	// distributed worker processes: packets whose flits are buffered in peer
	// processes make the local conservation books unbalanced by design,
	// while the protocol invariants of locally owned NICs remain exact.
	Local bool
}

// Checker is the invariant-monitor subsystem for one simulation. Create it
// with New, hand per-shard hooks to the NICs (HooksFor), register the
// components (AddNIC, AddProc), then Install it on the engine.
type Checker struct {
	eng  *sim.Engine
	net  topo.Network
	opts Options

	nics  []nic.NIC
	procs []*node.Proc
	logs  []*eventLog

	// Sequence-accounting state (pointer- or ID-keyed; see Options.Sequence
	// and Options.ByID).
	inflight   map[*packet.Packet]sendRec
	inflightID map[uint64]sendRec
	nextIdx    map[pairKey]int64
	lastIdx    map[pairKey]int64

	sweeps int64

	// clock is the step hook's fast-forward clock: it points at the next
	// interval-grid cycle, so the engine may skip (or window past) the
	// provably sweep-free cycles in between. Grid points themselves are
	// never skipped — a fast-forward jump lands exactly on the clock's wake.
	clock sim.Activity
}

// New returns a Checker for the simulation driven by eng over net.
func New(eng *sim.Engine, net topo.Network, opts Options) *Checker {
	if opts.Interval < 1 {
		opts.Interval = 1
	}
	c := &Checker{eng: eng, net: net, opts: opts}
	if c.tracking() {
		c.inflight = map[*packet.Packet]sendRec{}
		c.inflightID = map[uint64]sendRec{}
		c.nextIdx = map[pairKey]int64{}
		c.lastIdx = map[pairKey]int64{}
	}
	return c
}

// tracking reports whether send/accept events are recorded at all.
func (c *Checker) tracking() bool { return c.opts.Sequence || c.opts.InOrder }

// AddNIC registers a NIC for auditing. Order must match node numbers only
// in the sense that nc.Node() is authoritative; registration order is free.
func (c *Checker) AddNIC(nc nic.NIC) { c.nics = append(c.nics, nc) }

// AddProc registers a processor so the packets it holds (node.Proc.AuditHeld)
// join the whole-packet census.
func (c *Checker) AddProc(p *node.Proc) { c.procs = append(c.procs, p) }

// Install registers the monitor sweep as a clocked engine step hook. Call
// once, after the components are registered. The clock points at the next
// interval-grid cycle, so sweeps neither pin the engine to cycle-by-cycle
// stepping nor miss a grid point: fast-forward jumps and window boundaries
// both land exactly on the clock's wake, and the cycles in between are
// provably sweep-free (event processing is order-preserving under batching,
// so draining at grid points observes the same sequences).
func (c *Checker) Install() { c.eng.RegisterStepHookClocked(c.step, &c.clock) }

// step is the engine step hook: it runs pre-tick on the stepping goroutine,
// observing the fully flushed state of the previous cycle.
func (c *Checker) step(now sim.Cycle) {
	if c.tracking() {
		c.processEvents(now)
	}
	if now%c.opts.Interval == 0 {
		if c.opts.Local {
			c.sweepLocal(now)
		} else {
			c.sweep(now)
		}
		c.sweeps++
	}
	c.clock.Sleep(now - now%c.opts.Interval + c.opts.Interval)
}

// sweepLocal is the distributed-worker sweep: per-NIC protocol monitors and
// the recycle-safety census over locally owned NIC queues and processor-held
// packets only (see Options.Local).
func (c *Checker) sweepLocal(now sim.Cycle) {
	whole := map[*packet.Packet]whereRef{}
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
	for _, nc := range c.nics {
		c.auditNIC(now, nc, addWhole)
	}
	for _, p := range c.procs {
		nd := p.ID()
		p.AuditHeld(func(where string, pkt *packet.Packet) { addWhole(nd, where, pkt) })
	}
}

// Finish drains any remaining NIC events and, when sequence accounting is
// on, reports every packet still marked in flight as lost. Call it after
// the simulation has quiesced (all programs done, NICs idle); calling it
// mid-flight reports legitimately outstanding packets as losses.
func (c *Checker) Finish(now sim.Cycle) {
	if !c.tracking() {
		return
	}
	c.processEvents(now)
	if !c.opts.Sequence {
		return
	}
	lost := make([]sendRec, 0, len(c.inflight)+len(c.inflightID))
	//lint:allow(mapiter) pointer-keyed map has no sortable key; records are collected then sorted below for deterministic reporting
	for _, rec := range c.inflight {
		lost = append(lost, rec)
	}
	//lint:allow(mapiter) records are collected then sorted below for deterministic reporting
	for _, rec := range c.inflightID {
		lost = append(lost, rec)
	}
	// Deterministic report order regardless of map iteration.
	sortRecs(lost)
	for _, rec := range lost {
		c.report(now, MonLossDup, rec.pair.src,
			"packet %d->%d send #%d never accepted (lost)", rec.pair.src, rec.pair.dst, rec.idx)
	}
}

// Sweeps reports how many census sweeps have run (test introspection).
func (c *Checker) Sweeps() int64 { return c.sweeps }

// report forwards a violation to OnViolation or panics (the default: an invariant breach is a simulator bug).
func (c *Checker) report(now sim.Cycle, monitor string, nd int, format string, args ...any) {
	v := Violation{Cycle: now, Monitor: monitor, Node: nd, Detail: fmt.Sprintf(format, args...)}
	if c.opts.OnViolation != nil {
		c.opts.OnViolation(v)
		return
	}
	panic("check: " + v.String())
}
