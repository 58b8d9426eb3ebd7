// Package flow implements the flow-level fabric: a Narses-style
// bandwidth-sharing network model that replaces cycle-by-cycle flit
// switching with piecewise-constant per-flow rates, re-solved only on flow
// arrival and departure events. The NIFDY protocol layer above it stays
// exact — packets still open dialogs, consume OPT slots, obey windows, and
// generate acks through the same router.Port contract the flit fabrics
// implement — only a packet's fabric traversal time comes from the flow
// model.
//
// # Model
//
// Every in-flight packet is one flow. A flow's rate is its max-min-style
// fair share of the resources it occupies: the source access link (capacity
// 1/CPF flits per cycle, shared by all flows leaving the node), the
// destination access link (shared by all flows arriving there), the fabric
// bisection (shared by flows whose endpoints lie in different halves) and
// the aggregate fabric capacity (shared by every flow). Rates are piecewise
// constant between events — a flow arriving, a flow departing, a destination
// stalling or resuming — and every flow drains linearly in between.
//
// A flow occupies its source injection slot until its tail leaves the
// source (drain time = size/rate), which reproduces wormhole source
// blocking: congestion at the destination slows the flow's rate, which
// keeps the sender's slot busy, which back-pressures the NIC — the
// secondary-blocking tree the NIFDY protocol exists to prevent. After
// draining, the packet rides a fixed-latency pipe (AvgHops · HopCycles)
// and then lands in the destination's arrival buffer if it has room, or
// parks in the destination's fabric-side queue otherwise. A destination
// whose parked queue is full stalls: flows towards it drop to rate zero
// until the NIC drains arrivals, exactly the end-point congestion feedback
// the paper studies.
//
// # Solver
//
// The solver's cost is per *event*, not per cycle and not per active flow —
// the Narses property (PAPERS.md), which touches a flow only when a flow
// sharing one of its resources starts or ends. Three mechanisms keep it:
//
//   - Lazy drain. A flow's remaining work is stored as of the cycle its rate
//     last changed (fRem at fAt) and brought current only when the flow is
//     re-rated or probed. The drain is integer-linear in elapsed cycles, so
//     rem − rate·(t₂−t₀) is the number a step at every intermediate t₁ would
//     have left: the lazy remainder is exact, not approximate.
//   - Keyed drain deadlines. A flow whose rate is set by its own access
//     links is filed in a sim.Wheel under its drain cycle, now +
//     ceil(rem/rate). "Which flows drained" is a bucket expiry and "when is
//     the next drain" is the wheel's earliest key; an unchanged rate leaves
//     the entry alone, because ceil((a − r·d)/r) = ceil(a/r) − d: d cycles
//     on, the same deadline comes out.
//   - One service clock per global share. Flows whose binding constraint is
//     a global share (the fabric's, or the smaller of fabric and bisection
//     for crossing flows) all drain at that one rate, so they are not rated
//     one by one when the divisor moves: the class accumulates the service
//     S += share·dt it has given each member, a member carries the finish
//     tag rem + S(at join), and it drains at the first step with tag ≤ S.
//     Its deadline, at + ceil((tag − S(at))/share), is by the same identity
//     the one a per-flow re-rate at every share change would have computed.
//     A flow moves between its own deadline and a class only when its
//     access-link census k = max(nSrc, nDst) or the share crosses the
//     boundary share < linkCap/k. The flows a moving share pushes across
//     are found through lists of nodes by census, and a node's census
//     moving between two values below every boundary re-rates nobody.
//
// Drained flows retire in admission order whichever structure held them.
//
// # State layout and engine integration
//
// All per-node and per-flow state lives in flat arrays indexed by node and
// flow id (structure of arrays, no per-component pointer chasing). The
// fabric registers no routers and runs on a serial engine: ports are
// written by their owning NIC during the tick phase and by the solver during
// the pre-tick step hook — the same single-writer alternation the latch
// discipline gives flit fabrics.
package flow

import (
	"fmt"
	"math/bits"
	"slices"

	"nifdy/internal/packet"
	"nifdy/internal/ring"
	"nifdy/internal/rng"
	"nifdy/internal/router"
	"nifdy/internal/sim"
	"nifdy/internal/topo"
)

// rateQ is the fixed-point scale for rates (flits per cycle, Q20): integer
// arithmetic keeps the solver bit-deterministic.
const rateQ = 1 << 20

// Config sizes a flow-level fabric. The defaults mirror the flit fabrics'
// link and buffer parameters; twins derived from a flit topology take them
// from its Characteristics.
type Config struct {
	// Name labels the fabric ("mesh 8x8 flow").
	Name string
	// Nodes is the number of end points.
	Nodes int
	// CPF is the access-link serialization time per flit in cycles; zero
	// selects 4 (one 32-bit flit over a 1-byte link).
	CPF int
	// HopCycles is the per-hop header latency in cycles; zero selects
	// CPF+2 (serialization plus route/arbitration, the flit routers'
	// effective per-hop pipeline).
	HopCycles int
	// HopFlitCycles is the extra per-hop latency per flit of packet length,
	// in cycles — zero for wormhole/cut-through fabrics (the body streams
	// behind the header), CPF for store-and-forward fabrics (every hop
	// holds the whole packet). Making the pipe latency size-aware keeps
	// short acks from paying the long-packet store-and-forward price.
	HopFlitCycles int
	// AvgHops is the mean router-to-router distance; the pipe latency every
	// drained packet rides is round(AvgHops·(HopCycles +
	// HopFlitCycles·flits)). Zero selects 1.
	AvgHops float64
	// MaxHops is reported in Chars.
	MaxHops int
	// BisectionFPC is the bisection capacity in flits per cycle shared by
	// flows crossing the halves; zero or negative disables the constraint.
	BisectionFPC float64
	// FabricFPC is the aggregate internal capacity in flits per cycle over
	// all router-to-router links. Every active flow holds AvgHops links, so
	// the fabric sustains at most FabricFPC/AvgHops flits per cycle in
	// total — the whole-fabric contention bound that makes mesh-like
	// topologies saturate realistically. Zero or negative disables it.
	FabricFPC float64
	// DstCapFlits is the fabric-side queue per (destination, class): parked
	// flits beyond it stall the destination (rate-zero inbound flows).
	// Zero selects 16.
	DstCapFlits int
	// ArrCapFlits is the arrival (ejection) buffer per (node, class) in
	// flits, the analog of the flit interfaces' per-VC eject depth. Zero
	// selects topo.IfaceBufFlits.
	ArrCapFlits int
	// SolveStride quantizes solver activity in time: drain and landing
	// events are processed on the next multiple of the stride, so the solver
	// (and every NIC its retires and landings wake) runs at most once per
	// stride (plus once per cycle with newly staged sends) instead of once
	// per event cycle. Zero or one selects exact event timing — the setting
	// every seed-size twin is calibrated at. Scaling configs use a coarse stride:
	// the timing error is bounded by stride/drain-time, which the analytic
	// 100k+ constructors keep around a percent, and results remain
	// bit-deterministic since the quantization is purely a function of
	// configuration.
	SolveStride int
	// VolumeFlits is reported in Chars (informational).
	VolumeFlits int
	// InOrder is reported in Chars. The flow fabric delivers each
	// (src, dst, class) stream in order by construction.
	InOrder bool
	// Iface carries the shared node-interface options (loss model, seed).
	Iface topo.IfaceOptions
}

func (c *Config) defaults() {
	if c.CPF <= 0 {
		c.CPF = 4
	}
	if c.HopCycles <= 0 {
		c.HopCycles = c.CPF + 2
	}
	if c.AvgHops <= 0 {
		c.AvgHops = 1
	}
	if c.DstCapFlits <= 0 {
		c.DstCapFlits = 16
	}
	if c.ArrCapFlits <= 0 {
		c.ArrCapFlits = topo.IfaceBufFlits
	}
	if c.SolveStride <= 0 {
		c.SolveStride = 1
	}
}

// stagedSend is one StartSend awaiting activation, recorded by the port
// during the tick phase.
type stagedSend struct {
	node int32
	cls  uint8
	p    *packet.Packet
}

// pipeEntry is a drained packet riding the fixed-latency pipe to its
// destination.
type pipeEntry struct {
	p  *packet.Packet
	at sim.Cycle
}

// Fabric is the flow-level network. It implements topo.Network.
type Fabric struct {
	cfg       Config
	pipeLat   sim.Cycle
	pipeFlitQ int64 // rateQ·AvgHops·HopFlitCycles, per-flit pipe term
	linkCap   int64 // rateQ/CPF, per access link
	bisCap    int64 // rateQ·BisectionFPC, 0 = unconstrained
	fabCap    int64 // rateQ·FabricFPC/AvgHops, 0 = unconstrained

	ports []Port

	// Flow state (structure of arrays, indexed by flow id; fPkt is nil for a
	// free id). A flow is in one of three solver states:
	//
	//   - local: its rate fRate > 0 is set by its own access links, fRem is
	//     the work left at cycle fAt, and it is filed in drains under its
	//     drain cycle;
	//   - member (fHeap >= 0): its rate is its share class's, fRem is its
	//     finish tag, and it sits in the class heap (fRate and fAt are idle);
	//   - stalled (fRate == 0, unfiled): its destination is over the
	//     fabric-side cap, or it has not been rated yet.
	fPkt    []*packet.Packet
	fSrc    []int32
	fDst    []int32
	fSeq    []int64
	fRem    []int64     // work, flits·rateQ: remainder at fAt, or finish tag
	fRate   []int64     // rateQ units (flits/cycle)
	fAt     []sim.Cycle // cycle fRem was last brought current
	fHeap   []int32     // position in the class heap, -1 outside it
	nActive int
	freeIDs []int32
	drains  sim.Wheel // local flows, keyed by drain cycle
	// Per-destination intrusive list of inbound flows (-1 ends), for
	// marking on destination-census and stall changes.
	dstHead        []int32
	fNextD, fPrevD []int32
	// classes are the two global-share classes: [0] non-crossing flows
	// (fabric share), [1] crossing flows (the smaller of fabric and
	// bisection share).
	classes [2]shareClass
	// srcCensus and dstCensus list the nodes with live flows by their
	// access-link census as the rate formula sees it (nSrc; nDst coarsened).
	// A flow's own census is k = max of its two nodes', so the flows a moving
	// class boundary can flip all hang off nodes listed between the old and
	// the new boundary.
	srcCensus, dstCensus censusList
	// kSkip is the smaller of the two class boundaries. A node's census
	// moving between two values at or under it changes nobody's rate: a flow
	// there whose other node is at or under its class boundary too is and
	// stays a member, and one whose other node is above it takes its k from
	// that node before and after. Such a change marks no flow.
	kSkip int32
	// Incremental rate maintenance: rateDirty lists flows whose access-link
	// census or stall state changed since the last solve (fMark dedups).
	// The global divisors hold inside a dead band (stride > 1 only) so
	// census jitter around a grid point does not move the shares every
	// solve. All marking happens on the stepping goroutine in event order,
	// so the dirty set is deterministic.
	rateDirty        []int32
	fMark            []bool
	crossDiv, fabDiv int64
	// shareTab[k] is linkCap/k — the per-flow access-link share among k
	// concurrent flows, precomputed so the solver's hot loop divides only
	// for fan-in beyond the table.
	shareTab [65]int64

	// Per-node aggregates (solver-owned).
	nSrc        []int32                      // active flows leaving node
	nDst        []int32                      // active flows arriving at node
	parked      []ring.Deque[*packet.Packet] // per (node·2+class)
	parkedFlits []int32                      // per (node·2+class)

	// One pipe per class: with size-aware pipe latency a short reply could
	// land before an earlier long request, so a single FIFO would block it.
	// Classes are logically (on the CM-5, physically) independent networks;
	// per-class FIFOs keep each (src, dst, class) stream in order without
	// cross-class head-of-line blocking.
	pipes [packet.NumClasses]ring.Deque[pipeEntry]

	// Hand-off from the tick phase, written by ports in node order.
	staged []stagedSend
	dirty  []int32 // destinations whose arrival buffers freed space

	// clock is the solver's engine clock (RegisterStepHookClocked): asleep
	// until nextWork, woken to now+1 by ports that stage sends or free
	// arrival space during the tick phase.
	clock sim.Activity

	nCross   int32 // active flows crossing the bisection
	seq      int64
	lastRun  sim.Cycle
	nextWork sim.Cycle
	fabFlits int64 // flits in the fabric (active + parked + pipe)

	fabInjected, fabDelivered, fabDropped int64

	loss []*rng.Source // per-destination loss streams, nil when reliable

	stats SolverStats

	// Solver scratch (reused across runs).
	drained []int32

	bound bool
}

// New builds a flow-level fabric.
func New(cfg Config) *Fabric {
	cfg.defaults()
	if cfg.Nodes < 1 {
		panic(fmt.Sprintf("flow: %d nodes", cfg.Nodes))
	}
	f := &Fabric{
		cfg:       cfg,
		pipeLat:   sim.Cycle(cfg.AvgHops*float64(cfg.HopCycles) + 0.5),
		pipeFlitQ: int64(cfg.AvgHops*float64(cfg.HopFlitCycles)*rateQ + 0.5),
		linkCap:   rateQ / int64(cfg.CPF),
	}
	if f.pipeLat < 1 {
		f.pipeLat = 1
	}
	if cfg.BisectionFPC > 0 {
		f.bisCap = int64(cfg.BisectionFPC * rateQ)
	}
	if cfg.FabricFPC > 0 {
		f.fabCap = int64(cfg.FabricFPC / cfg.AvgHops * rateQ)
	}
	n := cfg.Nodes
	f.ports = make([]Port, n)
	for i := range f.ports {
		f.ports[i].init(f, int32(i))
	}
	f.nSrc = make([]int32, n)
	f.nDst = make([]int32, n)
	f.parked = make([]ring.Deque[*packet.Packet], n*packet.NumClasses)
	f.parkedFlits = make([]int32, n*packet.NumClasses)
	f.nextWork = sim.Never
	f.drains.Init()
	f.srcCensus.init(n)
	f.dstCensus.init(n)
	f.dstHead = make([]int32, n)
	for i := range f.dstHead {
		f.dstHead[i] = -1
	}
	f.shareTab[0] = f.linkCap
	for k := 1; k < len(f.shareTab); k++ {
		f.shareTab[k] = f.linkCap / int64(k)
	}
	if cfg.Iface.DropProb > 0 {
		f.loss = make([]*rng.Source, n)
		for i := range f.loss {
			f.loss[i] = f.cfg.Iface.LossRNG(uint64(i))
		}
	}
	return f
}

// Nodes implements topo.Network.
func (f *Fabric) Nodes() int { return f.cfg.Nodes }

// Iface implements topo.Network.
func (f *Fabric) Iface(n int) router.Port { return &f.ports[n] }

// Partition implements topo.Network: the all-zeros map whatever shards
// asks for. The flow tier is serial; its solver is cheap per event on one
// thread, and a sharded run would pay a barrier every cycle.
func (f *Fabric) Partition(shards int) []int {
	return make([]int, f.cfg.Nodes)
}

// RegisterRoutersSharded implements topo.Network: the flow fabric has no
// routers; registration installs the solver as a pre-tick step hook.
// shardOf is all zeros (Partition) and goes unused.
func (f *Fabric) RegisterRoutersSharded(e *sim.Engine, shardOf []int) {
	f.bind(e, f.step)
}

// bind wires the fabric to a serial engine with step as its solver (f.step;
// the tests' reference solver binds its own).
func (f *Fabric) bind(e *sim.Engine, step func(sim.Cycle)) {
	if f.bound {
		panic("flow: fabric registered twice")
	}
	if e.Shards() > 1 {
		panic(fmt.Sprintf("flow: fabric bound to a %d-shard engine; the flow tier runs serial", e.Shards()))
	}
	f.bound = true
	// Clocked: the solver's clock holds nextWork (its next drain/landing
	// event, stride-quantized), and ports wake it when they stage work, so
	// an otherwise-quiet engine fast-forwards straight between flow events.
	e.RegisterStepHookClocked(step, &f.clock)
}

// Chars implements topo.Network.
func (f *Fabric) Chars() topo.Characteristics {
	name := f.cfg.Name
	if name == "" {
		name = fmt.Sprintf("flow[%d]", f.cfg.Nodes)
	}
	return topo.Characteristics{
		Name: name, Nodes: f.cfg.Nodes,
		AvgHops: f.cfg.AvgHops, MaxHops: f.cfg.MaxHops,
		VolumeFlits: f.cfg.VolumeFlits, BisectionFPC: f.cfg.BisectionFPC,
		FabricFPC: f.cfg.FabricFPC,
		InOrder:   f.cfg.InOrder,
		CPF:       f.cfg.CPF, HopLat: float64(f.cfg.HopCycles),
		HopLatPerFlit: float64(f.cfg.HopFlitCycles),
	}
}

// BufferedFlits implements topo.Network: flits held by the flow model
// (draining, parked, or in the pipe; arrival buffers excluded, matching the
// flit fabrics).
func (f *Fabric) BufferedFlits() int { return int(f.fabFlits) }

// AuditRouters implements topo.Network: a flow fabric has no routers.
func (f *Fabric) AuditRouters(func(*router.Router)) {}

// AuditPackets implements the check.PacketAuditor census hook: one call per
// whole-packet reference the fabric and its ports hold, in deterministic
// order. Labels: "flow" (draining), "parked", "pipe" (in-fabric — these
// balance the packet counters), "staged" (pre-activation), "port-arr"
// (arrival buffers, delivered side).
func (f *Fabric) AuditPackets(fn func(node int, where string, p *packet.Packet)) {
	for id, p := range f.fPkt {
		if p != nil {
			fn(int(f.fSrc[id]), "flow", p)
		}
	}
	for i := range f.parked {
		nd := i / packet.NumClasses
		f.parked[i].ForEach(func(p *packet.Packet) { fn(nd, "parked", p) })
	}
	for c := range f.pipes {
		f.pipes[c].ForEach(func(e pipeEntry) { fn(e.p.Dst, "pipe", e.p) })
	}
	for _, st := range f.staged {
		fn(int(st.node), "staged", st.p)
	}
	for n := range f.ports {
		pt := &f.ports[n]
		for c := range pt.arrQ {
			pt.arrQ[c].ForEach(func(p *packet.Packet) { fn(n, "port-arr", p) })
		}
	}
}

// PacketCounters implements the check.PacketAuditor books: lifetime packets
// injected into the fabric (flows activated), delivered out of it (arrival
// buffer enqueues), and dropped by the loss model. injected − delivered −
// dropped must equal the census of "flow"+"parked"+"pipe" references.
func (f *Fabric) PacketCounters() (injected, delivered, dropped int64) {
	return f.fabInjected, f.fabDelivered, f.fabDropped
}

// step is the solver: it runs as a pre-tick engine step hook, on the
// stepping goroutine, while no component is ticking. The fast path — no
// event due, nothing staged — is a few compares; a step that does run costs
// in proportion to the events it handles, not to the flows in flight.
func (f *Fabric) step(now sim.Cycle) {
	if now < f.nextWork && len(f.staged) == 0 && len(f.dirty) == 0 {
		return
	}
	f.stats.Steps++
	changed := false

	// 1. Collect the flows whose drain deadline has come: the wheel entries
	// keyed at or before now (every key is ahead of the previous step, so
	// they sit in the buckets since), and each class's members whose finish
	// tag the class's service has reached. A flow is due exactly when an
	// advance to now would zero its remainder — rem ≤ rate·dt ⟺ deadline ≤
	// now, the deadline being t₀ + ceil(rem/rate).
	f.drained = f.drained[:0]
	for c := f.drains.Earliest(f.lastRun + 1); c <= now; c = f.drains.Earliest(c + 1) {
		for i := f.drains.First(c); i >= 0; {
			id := i
			i = f.drains.Next(id)
			if f.drains.Key(id) == c {
				f.drains.Unlink(id)
				f.stats.WheelExpiries++
				f.drained = append(f.drained, id)
			}
		}
	}
	for c := range f.classes {
		cl := &f.classes[c]
		cl.sync(now)
		for len(cl.heap) > 0 && f.fRem[cl.heap[0]] <= cl.s {
			id := cl.heap[0]
			f.heapRemove(cl, 0)
			f.stats.ClassLeaves++
			f.drained = append(f.drained, id)
		}
	}
	f.lastRun = now

	// 2. Retire drained flows in admission order (restored by sorting the
	// batch: it comes out of three structures): the packet's tail has left
	// its source — free the injection slot, credit the books, and put the
	// packet on the fixed-latency pipe.
	slices.SortFunc(f.drained, func(a, b int32) int {
		sa, sb := f.fSeq[a], f.fSeq[b]
		switch {
		case sa < sb:
			return -1
		case sa > sb:
			return 1
		}
		return 0
	})
	for _, id := range f.drained {
		f.retire(now, id)
		changed = true
	}

	// 3. Land pipe arrivals due now (per-class FIFO; within a class entries
	// retire in admission order and — size differences aside — land in it
	// too). A landing that parks may trip the destination's stall
	// threshold, so it forces a rate re-solve.
	for c := range f.pipes {
		for f.pipes[c].Len() > 0 {
			head, _ := f.pipes[c].Front()
			if head.at > now {
				break
			}
			e, _ := f.pipes[c].PopFront()
			if f.land(now, e.p) {
				changed = true
			}
		}
	}

	// 4. Promote parked packets at destinations whose arrival buffers freed
	// space this tick, in node order.
	f.forEachDirty(func(nd int32) {
		if f.promote(now, nd) {
			changed = true
		}
	})

	// 5. Activate staged sends in node order.
	f.forEachStaged(func(st stagedSend) {
		f.activate(now, st)
		changed = true
	})

	// 6. Re-solve rates when the flow set or a stall changed, then find the
	// next event: the model is piecewise-constant between here and there.
	if changed {
		f.solveRates(now)
	}
	f.recomputeNext(now)
}

// retire removes a drained flow (already out of the wheel or its class
// heap): source slot frees, packet enters the pipe.
func (f *Fabric) retire(now sim.Cycle, id int32) {
	src, dst := f.fSrc[id], f.fDst[id]
	p := f.fPkt[id]
	pt := &f.ports[src]
	c := p.Class
	if pt.slots[c] == p {
		pt.slots[c] = nil
		pt.slotFlow[c] = -1
		pt.injected++
		pt.act.WakeAt(now) // the slot is free: the NIC may inject this cycle
	}
	if f.crosses(src, dst) {
		f.nCross--
	}
	lat := f.pipeLat
	if f.pipeFlitQ > 0 {
		lat += sim.Cycle((f.pipeFlitQ*int64(p.Flits()) + rateQ/2) / rateQ)
	}
	f.pipes[p.Class].PushBack(pipeEntry{p: p, at: now + lat})
	f.stats.Departures++
	f.nActive--
	f.unlinkDst(id)
	f.fPkt[id] = nil
	f.freeIDs = append(f.freeIDs, id)
	// The departure frees share on both access links.
	f.srcCensusStep(src, -1)
	f.dstCensusStep(dst, -1)
}

// unlinkDst takes a flow off its destination's inbound list.
func (f *Fabric) unlinkDst(id int32) {
	dp, dn := f.fPrevD[id], f.fNextD[id]
	if dp >= 0 {
		f.fNextD[dp] = dn
	} else {
		f.dstHead[f.fDst[id]] = dn
	}
	if dn >= 0 {
		f.fPrevD[dn] = dp
	}
	f.fPrevD[id], f.fNextD[id] = -1, -1
}

// markFlow queues a flow for re-rating at the next solve.
func (f *Fabric) markFlow(id int32) {
	if !f.fMark[id] {
		f.fMark[id] = true
		f.rateDirty = append(f.rateDirty, id)
	}
}

// markSrc queues the flows leaving node src (at most one per class slot).
func (f *Fabric) markSrc(src int32) {
	for c := range f.ports[src].slotFlow {
		if id := f.ports[src].slotFlow[c]; id >= 0 {
			f.markFlow(id)
		}
	}
}

// srcCensusStep moves node src's outbound census by d (±1) and queues the
// flows leaving it, unless the move cannot matter to them (see kSkip).
func (f *Fabric) srcCensusStep(src, d int32) {
	old := f.nSrc[src]
	f.nSrc[src] += d
	f.srcCensus.move(src, old, old+d)
	if max(old, old+d) > f.kSkip {
		f.markSrc(src)
	}
}

// dstCensusStep is srcCensusStep for node dst's inbound census, which the
// rate formula reads coarsened: a step inside one coarse value is no change.
func (f *Fabric) dstCensusStep(dst, d int32) {
	old := f.dstCensusOf(dst)
	f.nDst[dst] += d
	k := f.dstCensusOf(dst)
	if k == old {
		return
	}
	f.dstCensus.move(dst, old, k)
	if max(old, k) > f.kSkip {
		f.markDst(dst)
	}
}

// dstCensusOf is node dst's inbound census as the rate formula reads it.
func (f *Fabric) dstCensusOf(dst int32) int32 {
	return int32(coarsen(int64(f.nDst[dst]), f.cfg.SolveStride))
}

// markDst queues every flow inbound to dst (its census or stall state
// changed, so each one's share is suspect).
func (f *Fabric) markDst(dst int32) {
	for id := f.dstHead[dst]; id >= 0; id = f.fNextD[id] {
		f.markFlow(id)
	}
}

// land delivers a pipe arrival into the destination's arrival buffer, or
// parks it when the buffer is full, reporting whether it parked (parked
// flits beyond the destination cap stall inbound flows at rate zero until
// the NIC drains arrivals, so parking forces a re-solve).
func (f *Fabric) land(now sim.Cycle, p *packet.Packet) bool {
	dst := int32(p.Dst)
	if f.loss != nil && f.loss[dst] != nil && f.loss[dst].Bool(f.cfg.Iface.DropProb) {
		// Lossy-fabric model: the packet vanishes here, exactly where the
		// flit interfaces drop fully arrived packets.
		f.fabDropped++
		f.fabFlits -= int64(p.Flits())
		f.ports[dst].dropped++
		return false
	}
	pt := &f.ports[dst]
	size := int32(p.Flits())
	c := p.Class
	qi := int(dst)*packet.NumClasses + int(c)
	if f.parked[qi].Len() == 0 && pt.arrFlits[c]+size <= int32(f.cfg.ArrCapFlits) {
		f.deliverArr(now, pt, p)
		return false
	}
	stalled := f.parkedFlits[qi] >= int32(f.cfg.DstCapFlits)
	f.parked[qi].PushBack(p)
	f.parkedFlits[qi] += size
	if !stalled && f.parkedFlits[qi] >= int32(f.cfg.DstCapFlits) {
		f.stats.StallEdges++
		f.markDst(dst) // crossed the stall threshold: inbound flows drop to zero
	}
	return true
}

// deliverArr moves a packet into the destination port's arrival buffer and
// wakes the NIC for this cycle's tick.
func (f *Fabric) deliverArr(now sim.Cycle, pt *Port, p *packet.Packet) {
	c := p.Class
	pt.arrQ[c].PushBack(p)
	pt.arrFlits[c] += int32(p.Flits())
	pt.act.WakeAt(now)
	f.fabDelivered++
	f.fabFlits -= int64(p.Flits())
}

// promote drains a destination's parked queues into freed arrival space,
// reporting whether a stalled destination may have unstalled.
func (f *Fabric) promote(now sim.Cycle, nd int32) bool {
	pt := &f.ports[nd]
	moved := false
	for c := 0; c < packet.NumClasses; c++ {
		qi := int(nd)*packet.NumClasses + c
		stalled := f.parkedFlits[qi] >= int32(f.cfg.DstCapFlits)
		for f.parked[qi].Len() > 0 {
			head, _ := f.parked[qi].Front()
			size := int32(head.Flits())
			if pt.arrFlits[c]+size > int32(f.cfg.ArrCapFlits) {
				break
			}
			p, _ := f.parked[qi].PopFront()
			f.parkedFlits[qi] -= size
			f.deliverArr(now, pt, p)
			moved = true
		}
		if stalled && f.parkedFlits[qi] < int32(f.cfg.DstCapFlits) {
			f.stats.StallEdges++
			f.markDst(nd) // stall lifted: inbound flows resume
		}
	}
	return moved
}

// activate admits one staged send as a live flow.
func (f *Fabric) activate(now sim.Cycle, st stagedSend) {
	p := st.p
	id := f.allocFlow()
	src, dst := st.node, int32(p.Dst)
	f.fPkt[id] = p
	f.fSrc[id] = src
	f.fDst[id] = dst
	f.fRem[id] = int64(p.Flits()) * rateQ
	f.fRate[id] = 0 // unrated: the solve below files it or joins it to a class
	f.fAt[id] = now
	f.fSeq[id] = f.seq
	f.seq++
	f.nActive++
	f.stats.Arrivals++
	f.fPrevD[id] = -1
	f.fNextD[id] = f.dstHead[dst]
	if h := f.dstHead[dst]; h >= 0 {
		f.fPrevD[h] = id
	}
	f.dstHead[dst] = id
	if f.crosses(src, dst) {
		f.nCross++
	}
	f.ports[src].slotFlow[st.cls] = id
	f.fabInjected++
	f.fabFlits += int64(p.Flits())
	// The new flow needs a rate, and the census change touches every flow
	// sharing its source or destination link.
	f.markFlow(id)
	f.srcCensusStep(src, 1)
	f.dstCensusStep(dst, 1)
}

func (f *Fabric) allocFlow() int32 {
	if n := len(f.freeIDs); n > 0 {
		id := f.freeIDs[n-1]
		f.freeIDs = f.freeIDs[:n-1]
		return id
	}
	id := int32(len(f.fPkt))
	f.fPkt = sim.Push(f.fPkt, nil)
	f.fSrc = sim.Push(f.fSrc, 0)
	f.fDst = sim.Push(f.fDst, 0)
	f.fRem = sim.Push(f.fRem, 0)
	f.fRate = sim.Push(f.fRate, 0)
	f.fAt = sim.Push(f.fAt, 0)
	f.fSeq = sim.Push(f.fSeq, 0)
	f.fHeap = sim.Push(f.fHeap, -1)
	f.fNextD = sim.Push(f.fNextD, -1)
	f.fPrevD = sim.Push(f.fPrevD, -1)
	f.fMark = sim.Push(f.fMark, false)
	f.drains.Grow(len(f.fPkt))
	return id
}

// crosses reports whether a (src, dst) pair spans the bisection halves.
func (f *Fabric) crosses(src, dst int32) bool {
	half := int32(f.cfg.Nodes / 2)
	return (src < half) != (dst < half)
}

// solveRates brings every rate in line with the flow set as it now stands: a
// flow's rate is its fair share of the source link, destination link,
// bisection and fabric, and a destination whose parked queue exceeds the
// fabric-side cap is stalled — flows towards it get rate zero until arrivals
// drain, which is the end-point backpressure that grows congestion trees
// under plain NICs. Rate is a pure function of per-flow inputs and the two
// global shares, so it is enough to move the shares (which re-rates their
// class members wholesale and flips the flows on the boundary) and re-rate
// the flows marked since the last solve, in any order.
func (f *Fabric) solveRates(now sim.Cycle) {
	stride := f.cfg.SolveStride
	var crossShare int64
	if f.bisCap > 0 && f.nCross > 0 {
		f.crossDiv = stableDiv(f.crossDiv, int64(f.nCross), stride)
		crossShare = max(f.bisCap/f.crossDiv, 1)
	}
	var fabShare int64
	if f.fabCap > 0 && f.nActive > 0 {
		f.fabDiv = stableDiv(f.fabDiv, int64(f.nActive), stride)
		fabShare = max(f.fabCap/f.fabDiv, 1)
	}
	crossing := fabShare
	if crossShare > 0 && (fabShare == 0 || crossShare < fabShare) {
		crossing = crossShare
	}
	lo0, hi0 := f.setShare(&f.classes[0], fabShare)
	lo1, hi1 := f.setShare(&f.classes[1], crossing)
	f.flip(now, lo0, hi0)
	f.flip(now, lo1, hi1)
	f.kSkip = min(f.classes[0].kMax, f.classes[1].kMax)
	for _, id := range f.rateDirty {
		f.fMark[id] = false
		if f.fPkt[id] != nil { // skip ids retired after marking
			f.rerate(now, id)
		}
	}
	f.rateDirty = f.rateDirty[:0]
}

// rerate recomputes one flow's rate from its access-link census and stall
// state, and moves it between the wheel and its share class accordingly. A
// rate that comes out unchanged costs nothing further: the flow's deadline
// (or tag) stands, by the ceil identity in the package doc.
func (f *Fabric) rerate(now sim.Cycle, id int32) {
	f.stats.Rerated++
	src, dst := f.fSrc[id], f.fDst[id]
	qi := int(dst)*packet.NumClasses + int(f.fPkt[id].Class)
	// k = 0: stalled destination — the flow holds its source slot at rate
	// zero, the secondary-blocking analog.
	var k int32
	if f.parkedFlits[qi] < int32(f.cfg.DstCapFlits) {
		k = max(f.nSrc[src], f.dstCensusOf(dst))
	}
	cl := f.classOf(id)
	if k != 0 && k <= cl.kMax {
		// The class share binds. A member's tag stands whatever the share
		// has done since it joined.
		if f.fHeap[id] < 0 {
			f.join(now, cl, id)
		}
		return
	}
	var rate int64
	if k != 0 {
		rate = max(f.shareOf(int64(k)), 1)
	}
	if f.fHeap[id] >= 0 {
		f.leave(now, cl, id)
	} else if rate == f.fRate[id] {
		return
	} else {
		f.advance(now, id)
	}
	f.fRate[id] = rate
	if rate > 0 {
		// Every live flow has work left (a flow with none was due, and
		// retired, before any re-rate), so the deadline is ahead of now.
		f.drains.File(id, now+sim.Cycle((f.fRem[id]+rate-1)/rate))
		f.stats.WheelFiles++
	}
}

// advance brings a local flow's remainder current and takes it off the
// wheel, ahead of a rate change.
func (f *Fabric) advance(now sim.Cycle, id int32) {
	f.stats.Advanced++
	f.fRem[id] -= f.fRate[id] * int64(now-f.fAt[id])
	f.fAt[id] = now
	if f.drains.Key(id) != 0 {
		f.drains.Unlink(id)
		f.stats.WheelUnlinks++
	}
}

// drainAt reports the cycle flow id's tail leaves its source at its present
// rate, Never for a stalled flow.
func (f *Fabric) drainAt(id int32) sim.Cycle {
	if f.fHeap[id] >= 0 {
		return f.classOf(id).drainAt(f.fRem[id])
	}
	if k := f.drains.Key(id); k != 0 {
		return k
	}
	return sim.Never
}

// shareOf is the per-flow share of one access link among n concurrent flows.
func (f *Fabric) shareOf(n int64) int64 {
	if n < int64(len(f.shareTab)) {
		return f.shareTab[n]
	}
	return f.linkCap / n
}

// coarsen rounds a share divisor up to the next value representable in 7
// significant bits (< 1% relative error) so fair-share rates stay
// piecewise-constant under small churn in the flow census — without it
// every admission and retirement re-rates every active flow and the
// unchanged-rate fast path in solveRates never fires. Identity below 128
// and whenever the solver runs unquantized (stride <= 1), which keeps every
// calibration-sized configuration exact.
func coarsen(n int64, stride int) int64 {
	if stride <= 1 || n < 128 {
		return n
	}
	mask := int64(1)<<(bits.Len64(uint64(n))-7) - 1
	return (n + mask) &^ mask
}

// stableDiv holds a global share divisor inside a ±1/32 dead band of its
// last value: unlike a fixed rounding grid, the band moves with the
// divisor, so census jitter around any point — including the sawtooth of a
// retire batch followed by the re-injections it frees — leaves the divisor,
// and with it every fabric-limited rate, untouched until the census
// genuinely drifts ~3%. Exact (always n) when the solver runs unquantized.
func stableDiv(last, n int64, stride int) int64 {
	if stride <= 1 || last <= 0 {
		return n
	}
	d := n - last
	if d < 0 {
		d = -d
	}
	if d*32 <= last {
		return last
	}
	return n
}

// recomputeNext finds the earliest pending event: a pipe entry landing, the
// wheel's earliest drain, or a class's smallest tag coming due. With a coarse
// SolveStride the wake-up rounds up to the next stride boundary — events in
// between wait for it, which is what caps the solver at one step per stride.
func (f *Fabric) recomputeNext(now sim.Cycle) {
	next := f.drains.Earliest(now + 1)
	for c := range f.pipes {
		if head, ok := f.pipes[c].Front(); ok && head.at < next {
			next = head.at
		}
	}
	for c := range f.classes {
		if cl := &f.classes[c]; len(cl.heap) > 0 {
			if at := cl.drainAt(f.fRem[cl.heap[0]]); at < next {
				next = at
			}
		}
	}
	if s := sim.Cycle(f.cfg.SolveStride); s > 1 && next != sim.Never {
		next = (next + s - 1) / s * s
	}
	f.nextWork = next
	f.clock.Sleep(next)
}

// forEachStaged drains the staging list, which is node-ascending because
// NICs tick in node order.
func (f *Fabric) forEachStaged(fn func(stagedSend)) {
	for _, st := range f.staged {
		fn(st)
	}
	clear(f.staged)
	f.staged = f.staged[:0]
}

// forEachDirty drains the ascending list of destinations that freed arrival
// space, each node once: a port lists its node once per packet it pops, so
// its repeats are adjacent.
func (f *Fabric) forEachDirty(fn func(int32)) {
	last := int32(-1)
	for _, v := range f.dirty {
		if v != last {
			fn(v)
			last = v
		}
	}
	f.dirty = f.dirty[:0]
}
