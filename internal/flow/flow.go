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
// draining, the packet rides a fixed-latency pipe (AvgHops · (HopLat +
// HopLatPerFlit · flits), hop latencies in whole cycles) and then lands in
// the destination's arrival buffer if it has room, or parks in the
// destination's fabric-side queue otherwise. A destination
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
//   - Lazy drain. A flow's remaining work is stored extrapolated back to
//     cycle 0 at its present rate, so the work left at cycle t is
//     rem − rate·t, and brought current only when the flow is re-rated. The
//     drain is integer-linear in elapsed cycles, so rem − rate·t₂ is the
//     number a step at every intermediate t₁ would have left: the lazy
//     remainder is exact, not approximate.
//   - Keyed drain deadlines. A flow whose rate is set by its own access
//     links is filed in a sim.Wheel under its drain cycle, ceil(rem/rate) —
//     now + ceil(cur/rate) for the work cur left now, since rate·now
//     divides by rate. "Which flows drained" is a bucket expiry and "when is
//     the next drain" is the wheel's earliest key; an unchanged rate leaves
//     the entry alone, because the deadline does not depend on the cycle it
//     is read at.
//   - One service clock per global share. Flows whose binding constraint is
//     a global share (the fabric's, or the smaller of fabric and bisection
//     for crossing flows) all drain at that one rate, so they are not rated
//     one by one when the divisor moves: the class accumulates the service
//     S += share·dt it has given each member, a member carries the finish
//     tag rem + S(at join), and it drains at the first step with tag ≤ S.
//     Its deadline, at + ceil((tag − S(at))/share), is by the same identity
//     the one a per-flow re-rate at every share change would have computed.
//     S only grows, so members joining with the same remainder join in tag
//     order: one with a whole number of flits left, under 64 (an admitted
//     packet), is appended to that remainder's FIFO, and only the others
//     sift through a 4-ary heap. Joining, leaving and draining a FIFO member cost
//     O(1); the class's next drain is the least of the FIFO fronts and the
//     heap root.
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
// A node's state is one Port record: its injection slots, one landed-packet
// queue per class (the arrival buffer at the front, parked packets behind
// it) and the solver's census counts. A flow's state is one flowRec, at
// most a cache line, in a slice indexed by flow id, so an event touches one
// line per flow it handles; the share-class FIFOs and heaps carry each
// member's tag beside its id and the drained batch each flow's admission
// number, so sifting and sorting load no record (a FIFO entry's record is
// loaded once, to tell a live entry from one its member left behind). A
// flow lives exactly while its packet holds its source's class slot, so its
// id is that slot's, node·NumClasses + class, and New sizes every table
// once. The fabric registers no routers and runs on a serial engine: ports
// are written by their owning NIC during the tick phase and by the solver
// during the pre-tick step hook — the same single-writer alternation the
// latch discipline gives flit fabrics.
package flow

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"

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

// Config sizes a flow-level fabric: a fabric's Table 3 row, which the flit
// fabrics report as their Characteristics, plus what the flow model alone
// needs. Twins take the row from a flit topology's Chars (FromChars);
// MeshConfig fills it in closed form.
//
// Of the embedded row, New reads Nodes; CPF, the access-link serialization
// time per flit (zero selects 4); HopLat, the per-hop header latency, and
// HopLatPerFlit, its per-flit increment (each rounded to whole cycles; a
// HopLat that rounds to zero selects CPF+2, the flit routers' effective
// per-hop pipeline); AvgHops, the pipe every drained packet rides being
// round(AvgHops·(HopLat + HopLatPerFlit·flits)) cycles (zero selects 1);
// BisectionFPC, shared by flows crossing the halves; and FabricFPC, the
// aggregate internal capacity, so that the fabric sustains at most
// FabricFPC/AvgHops flits per cycle in total — the whole-fabric contention
// bound that makes mesh-like topologies saturate realistically. A
// non-positive capacity disables its constraint. The rest is reported in
// Chars, which always reads InOrder: the flow fabric delivers each
// (src, dst, class) stream in order by construction.
type Config struct {
	topo.Characteristics
	// DstCapFlits is the fabric-side queue per (destination, class): parked
	// flits beyond it stall the destination (rate-zero inbound flows).
	// Zero selects the per-node buffering VolumeFlits/Nodes, at least 16.
	DstCapFlits int
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
	// Iface carries the shared node-interface options (loss model, seed).
	Iface topo.IfaceOptions
}

func (c *Config) defaults() {
	if c.Name == "" {
		c.Name = fmt.Sprintf("flow[%d]", c.Nodes)
	}
	if c.CPF <= 0 {
		c.CPF = 4
	}
	c.HopLat = float64(int(c.HopLat + 0.5))
	c.HopLatPerFlit = float64(int(c.HopLatPerFlit + 0.5))
	if c.HopLat <= 0 {
		c.HopLat = float64(c.CPF + 2)
	}
	if c.AvgHops <= 0 {
		c.AvgHops = 1
	}
	c.InOrder = true
	if c.DstCapFlits <= 0 && c.Nodes > 0 {
		c.DstCapFlits = max(c.VolumeFlits/c.Nodes, 16)
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

// flowRec is one flow's solver state; pkt is nil for a free id. A flow is in
// one of three solver states:
//
//   - local: its rate > 0 is set by its own access links, its work left at
//     cycle t is rem − rate·t (rem is the remainder extrapolated to cycle 0
//     at the present rate), and it is filed in drains under its drain cycle;
//   - member (heap != -1): it drains at its share class's rate, rem is its
//     finish tag, and it has an entry in one of the class's remainder FIFOs
//     or in its heap (its rate field is 0);
//   - stalled (rate == 0, unfiled): its destination is over the fabric-side
//     cap, or it has not been rated yet; rem is its work left.
//
// The record is at most one cache line (TestFlowRecLayout).
type flowRec struct {
	rem  int64 // work, flits·rateQ: see the solver states above
	seq  int64 // admission number: drained flows retire in its order
	pkt  *packet.Packet
	rate int32 // rateQ units (flits/cycle), at most linkCap = rateQ/CPF
	dst  int32
	// heap is the member's position in its class heap, the class's code
	// (shareClass.code, below -1) for a FIFO member, -1 outside any class.
	heap int32
	// nextD and prevD link the flow into its destination's inbound list
	// (Port.dstHead, -1 ends), for marking on destination-census and stall
	// changes.
	nextD, prevD int32
	mark         bool // queued on rateDirty
}

// drainedFlow is one flow due to retire this step, with its admission
// number beside it so sorting the batch never loads a record.
type drainedFlow struct {
	seq int64
	id  int32
}

// Fabric is the flow-level network. It implements topo.Network.
type Fabric struct {
	cfg       Config
	pipeLat   sim.Cycle
	pipeFlitQ int64 // rateQ·AvgHops·HopLatPerFlit, per-flit pipe term
	linkCap   int64 // rateQ/CPF, per access link
	bisCap    int64 // rateQ·BisectionFPC, 0 = unconstrained
	fabCap    int64 // rateQ·FabricFPC/AvgHops, 0 = unconstrained

	ports []Port

	// flows holds every flow's solver state, indexed by flow id (the slot
	// the flow holds, see srcOf): one record per flow, so an event touches
	// one line per flow it handles.
	flows   []flowRec
	nActive int
	drains  sim.Wheel // local flows, keyed by drain cycle
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
	// census or stall state changed since the last solve (flowRec.mark
	// dedups). The global divisors hold inside a dead band (stride > 1
	// only) so census jitter around a grid point does not move the shares
	// every solve. All marking happens on the stepping goroutine in event
	// order, so the dirty set is deterministic.
	rateDirty        []int32
	crossDiv, fabDiv int64
	// shareTab[k] is linkCap/k — the per-flow access-link share among k
	// concurrent flows, precomputed so the solver's hot loop divides only
	// for fan-in beyond the table.
	shareTab [65]int64

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
	drained []drainedFlow

	bound bool
}

// fabricFeatures names the features fc turns on ("" for a plain fabric).
func fabricFeatures(fc router.FabricConfig) string {
	var on []string
	if fc.PFC {
		on = append(on, "PFC")
	}
	if fc.ECN {
		on = append(on, "ECN")
	}
	if fc.WireDrop > 0 {
		on = append(on, fmt.Sprintf("WireDrop %g", fc.WireDrop))
	}
	return strings.Join(on, ", ")
}

// New builds a flow-level fabric. It refuses (panics on) any
// router.FabricConfig feature in cfg.Iface rather than run a plain fabric in
// its place: the flow tier models neither PFC, ECN nor WireDrop.
func New(cfg Config) *Fabric {
	cfg.defaults()
	if cfg.Nodes < 1 {
		panic(fmt.Sprintf("flow: %d nodes", cfg.Nodes))
	}
	if on := fabricFeatures(cfg.Iface.Fabric); on != "" {
		panic("flow: the flow tier does not model router.FabricConfig " + on + "; build the flit fabric")
	}
	f := &Fabric{
		cfg:       cfg,
		pipeLat:   sim.Cycle(cfg.AvgHops*cfg.HopLat + 0.5),
		pipeFlitQ: int64(cfg.AvgHops*cfg.HopLatPerFlit*rateQ + 0.5),
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
	ids := n * packet.NumClasses
	f.flows = make([]flowRec, ids)
	for id := range f.flows {
		fl := &f.flows[id]
		fl.heap, fl.nextD, fl.prevD = -1, -1, -1
	}
	for c := range f.classes {
		f.classes[c].code = -2 - int32(c)
	}
	f.drains.Init()
	f.drains.Grow(ids)
	f.nextWork = sim.Never
	f.srcCensus.init(n)
	f.dstCensus.init(n)
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
func (f *Fabric) Chars() topo.Characteristics { return f.cfg.Characteristics }

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
	for id := range int32(len(f.flows)) {
		if p := f.flows[id].pkt; p != nil {
			fn(int(srcOf(id)), "flow", p)
		}
	}
	for c := range f.pipes {
		f.pipes[c].ForEach(func(e pipeEntry) { fn(e.p.Dst, "pipe", e.p) })
	}
	for _, st := range f.staged {
		fn(int(st.node), "staged", st.p)
	}
	for n := range f.ports {
		pt := &f.ports[n]
		for c := range pt.q {
			for i := range pt.q[c].Len() {
				where := "port-arr"
				if i >= int(pt.arrN[c]) {
					where = "parked"
				}
				fn(n, where, pt.q[c].At(i))
			}
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
				f.drained = sim.Push(f.drained, drainedFlow{f.flows[id].seq, id})
			}
		}
	}
	for c := range f.classes {
		cl := &f.classes[c]
		cl.sync(now)
		f.drainDue(cl)
	}
	f.lastRun = now

	// 2. Retire drained flows in admission order (restored by sorting the
	// batch: it comes out of three structures): the packet's tail has left
	// its source — free the injection slot, credit the books, and put the
	// packet on the fixed-latency pipe.
	sortDrained(f.drained)
	for _, d := range f.drained {
		f.retire(now, d.id)
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
	fl := &f.flows[id]
	src, dst, c := srcOf(id), fl.dst, slotClass(id)
	p := fl.pkt
	pt := &f.ports[src]
	if pt.slots[c] != p {
		panic(fmt.Sprintf("flow: node %d retires flow %d, whose packet does not hold its class %d slot", src, id, c))
	}
	pt.slots[c] = nil
	pt.injected++
	pt.act.WakeAt(now) // the slot is free: the NIC may inject this cycle
	if f.crosses(src, dst) {
		f.nCross--
	}
	lat := f.pipeLat
	if f.pipeFlitQ > 0 {
		lat += sim.Cycle((f.pipeFlitQ*int64(p.Flits()) + rateQ/2) / rateQ)
	}
	f.pipes[c].PushBack(pipeEntry{p: p, at: now + lat})
	f.stats.Departures++
	f.nActive--
	f.unlinkDst(id)
	fl.pkt = nil
	// The departure frees share on both access links.
	f.srcCensusStep(src, -1)
	f.dstCensusStep(dst, -1)
}

// unlinkDst takes a flow off its destination's inbound list.
func (f *Fabric) unlinkDst(id int32) {
	fl := &f.flows[id]
	dp, dn := fl.prevD, fl.nextD
	if dp >= 0 {
		f.flows[dp].nextD = dn
	} else {
		f.ports[fl.dst].dstHead = dn
	}
	if dn >= 0 {
		f.flows[dn].prevD = dp
	}
	fl.prevD, fl.nextD = -1, -1
}

// markFlow queues a flow for re-rating at the next solve.
func (f *Fabric) markFlow(id int32) {
	if fl := &f.flows[id]; !fl.mark {
		fl.mark = true
		f.rateDirty = sim.Push(f.rateDirty, id)
	}
}

// markSrc queues the flows leaving node src (at most one per class slot).
func (f *Fabric) markSrc(src int32) {
	for c := range packet.NumClasses {
		if id := flowID(src, c); f.flows[id].pkt != nil {
			f.markFlow(id)
		}
	}
}

// srcCensusStep moves node src's outbound census by d (±1) and queues the
// flows leaving it, unless the move cannot matter to them (see kSkip).
func (f *Fabric) srcCensusStep(src, d int32) {
	pt := &f.ports[src]
	old := pt.nSrc
	pt.nSrc += d
	f.srcCensus.move(src, old, old+d)
	if max(old, old+d) > f.kSkip {
		f.markSrc(src)
	}
}

// dstCensusStep is srcCensusStep for node dst's inbound census, which the
// rate formula reads coarsened: a step inside one coarse value is no change.
func (f *Fabric) dstCensusStep(dst, d int32) {
	old := f.dstCensusOf(dst)
	f.ports[dst].nDst += d
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
	return int32(coarsen(int64(f.ports[dst].nDst), f.cfg.SolveStride))
}

// markDst queues every flow inbound to dst (its census or stall state
// changed, so each one's share is suspect).
func (f *Fabric) markDst(dst int32) {
	for id := f.ports[dst].dstHead; id >= 0; id = f.flows[id].nextD {
		f.markFlow(id)
	}
}

// land puts a pipe arrival at the back of the destination's landed-packet
// queue and counts it into the arrival buffer if nothing is parked ahead of
// it and it fits, or as parked otherwise, reporting whether it parked
// (parked flits beyond the destination cap stall inbound flows at rate zero
// until the NIC drains arrivals, so parking forces a re-solve).
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
	pt.q[c].PushBack(p)
	if int(pt.arrN[c]) == pt.q[c].Len()-1 && pt.arrFlits[c]+size <= topo.IfaceBufFlits {
		f.deliverArr(now, pt, c, size)
		return false
	}
	stalled := pt.parkedFlits[c] >= int32(f.cfg.DstCapFlits)
	pt.parkedFlits[c] += size
	if !stalled && pt.parkedFlits[c] >= int32(f.cfg.DstCapFlits) {
		f.stats.StallEdges++
		f.markDst(dst) // crossed the stall threshold: inbound flows drop to zero
	}
	return true
}

// deliverArr counts the first parked packet of class c (size flits) into
// the destination port's arrival buffer and wakes the NIC for this cycle's
// tick.
func (f *Fabric) deliverArr(now sim.Cycle, pt *Port, c packet.Class, size int32) {
	pt.arrN[c]++
	pt.arrFlits[c] += size
	pt.act.WakeAt(now)
	f.fabDelivered++
	f.fabFlits -= int64(size)
}

// promote moves the boundary of a destination's landed-packet queues past
// the parked packets that fit the freed arrival space, reporting whether a
// stalled destination may have unstalled.
func (f *Fabric) promote(now sim.Cycle, nd int32) bool {
	pt := &f.ports[nd]
	moved := false
	for c := range packet.Class(packet.NumClasses) {
		stalled := pt.parkedFlits[c] >= int32(f.cfg.DstCapFlits)
		for int(pt.arrN[c]) < pt.q[c].Len() {
			size := int32(pt.q[c].At(int(pt.arrN[c])).Flits())
			if pt.arrFlits[c]+size > topo.IfaceBufFlits {
				break
			}
			pt.parkedFlits[c] -= size
			f.deliverArr(now, pt, c, size)
			moved = true
		}
		if stalled && pt.parkedFlits[c] < int32(f.cfg.DstCapFlits) {
			f.stats.StallEdges++
			f.markDst(nd) // stall lifted: inbound flows resume
		}
	}
	return moved
}

// activate admits one staged send as a live flow.
func (f *Fabric) activate(now sim.Cycle, st stagedSend) {
	p := st.p
	src, dst := st.node, int32(p.Dst)
	id := flowID(src, int(st.cls))
	dpt := &f.ports[dst]
	fl := &f.flows[id]
	fl.pkt = p
	fl.dst = dst
	fl.rem = int64(p.Flits()) * rateQ
	fl.rate = 0 // unrated: the solve below files it or joins it to a class
	fl.seq = f.seq
	fl.prevD, fl.nextD = -1, dpt.dstHead
	f.seq++
	f.nActive++
	f.stats.Arrivals++
	if h := dpt.dstHead; h >= 0 {
		f.flows[h].prevD = id
	}
	dpt.dstHead = id
	if f.crosses(src, dst) {
		f.nCross++
	}
	f.fabInjected++
	f.fabFlits += int64(p.Flits())
	// The new flow needs a rate, and the census change touches every flow
	// sharing its source or destination link.
	f.markFlow(id)
	f.srcCensusStep(src, 1)
	f.dstCensusStep(dst, 1)
}

// flowID is the id of the flow holding node's class c injection slot: a
// flow's id is the slot it holds.
func flowID(node int32, c int) int32 { return node*packet.NumClasses + int32(c) }

// srcOf is the source node of flow id.
func srcOf(id int32) int32 { return id / packet.NumClasses }

// slotClass is the class of flow id's packet: the class of the slot it holds.
func slotClass(id int32) packet.Class { return packet.Class(id % packet.NumClasses) }

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
		fl := &f.flows[id]
		fl.mark = false
		if fl.pkt != nil { // skip ids retired after marking
			f.rerate(now, id)
		}
	}
	f.rateDirty = f.rateDirty[:0]
}

// rerate recomputes one flow's rate from its access-link census and stall
// state, and moves it between the wheel and its share class accordingly. A
// rate that comes out unchanged costs nothing further: the flow's deadline
// (or tag) stands, as the package doc shows.
func (f *Fabric) rerate(now sim.Cycle, id int32) {
	f.stats.Rerated++
	fl := &f.flows[id]
	src, dst := srcOf(id), fl.dst
	// k = 0: stalled destination — the flow holds its source slot at rate
	// zero, the secondary-blocking analog.
	var k int32
	if f.ports[dst].parkedFlits[slotClass(id)] < int32(f.cfg.DstCapFlits) {
		k = max(f.ports[src].nSrc, f.dstCensusOf(dst))
	}
	cl := f.classOf(src, dst)
	if k != 0 && k <= cl.kMax {
		// The class share binds. A member's tag stands whatever the share
		// has done since it joined.
		if fl.heap == -1 {
			f.join(now, cl, id)
		}
		return
	}
	var rate int32
	if k != 0 {
		rate = int32(max(f.shareOf(int64(k)), 1))
	}
	if fl.heap != -1 {
		f.leave(cl, id)
	} else if rate == fl.rate {
		return
	} else {
		f.advance(now, id)
	}
	if rate > 0 {
		// The remainder, current and stopped, runs out at rate from now on:
		// rem becomes its extrapolation to cycle 0, and the deadline is the
		// cycle that reaches zero, ceil(rem/rate) = now + ceil(cur/rate).
		// Every live flow has work left (a flow with none was due, and
		// retired, before any re-rate), so the deadline is ahead of now.
		r := int64(rate)
		fl.rate = rate
		fl.rem += r * now
		f.drains.File(id, (fl.rem+r-1)/r)
		f.stats.WheelFiles++
	}
}

// advance brings a local flow's remainder current and stops it (rate 0,
// off the wheel), ahead of a rate change.
func (f *Fabric) advance(now sim.Cycle, id int32) {
	f.stats.Advanced++
	fl := &f.flows[id]
	fl.rem -= int64(fl.rate) * now
	fl.rate = 0
	if f.drains.Key(id) != 0 {
		f.drains.Unlink(id)
		f.stats.WheelUnlinks++
	}
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
		cl := &f.classes[c]
		if tag, ok := f.minTag(cl); ok {
			if at := cl.drainAt(tag); at < next {
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

// sortDrained puts a drained batch in admission order.
func sortDrained(d []drainedFlow) {
	slices.SortFunc(d, func(a, b drainedFlow) int { return cmp.Compare(a.seq, b.seq) })
}
