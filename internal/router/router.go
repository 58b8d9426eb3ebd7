package router

import (
	"fmt"
	"math/bits"

	"nifdy/internal/packet"
	"nifdy/internal/rng"
	"nifdy/internal/sim"
)

// Choice is one candidate next hop for a packet: an output port and the
// virtual channels (within the packet's class, 0..VCs-1) it may use there.
// An empty VCs slice means any VC of the class is allowed.
type Choice struct {
	Port int
	VCs  []int
}

// RouteFn computes the candidate next hops for a packet arriving on inPort.
// Implementations append to scratch and return it to avoid allocation. A
// RouteFn must be a pure function of (inPort, packet) — adaptivity between
// the returned candidates is the router's job, not the route function's.
type RouteFn func(inPort int, p *packet.Packet, scratch []Choice) []Choice

// Config parameterizes a Router.
type Config struct {
	// ID identifies the router (diagnostics only).
	ID int
	// InPorts and OutPorts are the port counts; port i in and out need not
	// be related.
	InPorts, OutPorts int
	// VCs is the number of virtual channels per logical network class. The
	// total VC space per port is packet.NumClasses * VCs.
	VCs int
	// BufFlits is the input buffer depth per virtual channel, in flits.
	BufFlits int
	// SAF selects store-and-forward: a packet's flits are forwarded only
	// once the whole packet is buffered. Requires BufFlits >= packet size.
	SAF bool
	// Route computes candidate next hops.
	Route RouteFn
	// RNG breaks ties between equally attractive adaptive candidates. If
	// nil, the first candidate wins (appropriate for deterministic routing).
	RNG *rng.Source
	// Fabric configures the modern-fabric baselines: PFC pause/resume with
	// per-VC thresholds on every channel (hop-by-hop backpressure) and ECN
	// congestion marking at the egress queues. The lossy-wire knobs are
	// applied by the interfaces, not here.
	Fabric FabricConfig
}

// vcState is one input virtual channel. Its flit queue is a fixed-capacity
// ring over a BufFlits-slot window of the router's one flit slab (indexed by
// (port, vc)): the credit protocol bounds occupancy at BufFlits, so the
// storage never grows and forwarding never slides or reallocates a slice —
// the append/`q = q[1:]` queue it replaces reallocated once per packet.
type vcState struct {
	buf     []packet.Flit // BufFlits ring slots of the router's flit slab
	head    int           // ring index of the oldest flit
	n       int           // buffered flit count
	outPort int           // -1 when the head packet has no route yet
	outVC   int           // global vc index at the downstream input port
	waitSeq int64         // allocation age: stamp when the front head became unrouted
	// choices caches the route computation for the packet at the front of
	// the queue, so a head blocked on VC allocation does not recompute its
	// route every cycle.
	choices   []Choice
	choicesOK bool
}

// front returns the oldest buffered flit. The VC must be non-empty.
func (v *vcState) front() *packet.Flit { return &v.buf[v.head] }

// at returns the i-th oldest buffered flit (0 = front).
func (v *vcState) at(i int) *packet.Flit {
	idx := v.head + i
	if idx >= len(v.buf) {
		idx -= len(v.buf)
	}
	return &v.buf[idx]
}

// push appends f. The caller enforces the credit bound.
func (v *vcState) push(f packet.Flit) {
	idx := v.head + v.n
	if idx >= len(v.buf) {
		idx -= len(v.buf)
	}
	v.buf[idx] = f
	v.n++
}

// pop removes and returns the front flit, zeroing its slot so the ring never
// retains a forwarded packet.
func (v *vcState) pop() packet.Flit {
	f := v.buf[v.head]
	v.buf[v.head] = packet.Flit{}
	v.head++
	if v.head == len(v.buf) {
		v.head = 0
	}
	v.n--
	return f
}

type inPort struct {
	ch        *Channel
	vcs       []vcState
	pfcActive []bool // per global vc: pause issued upstream, resume pending
}

type requester struct{ in, vc int }

type outPort struct {
	ch        *Channel
	credits   []int            // free downstream buffer slots per global vc
	initial   int              // initial credit grant (downstream buffer depth)
	owner     []*packet.Packet // packet holding each downstream vc, nil = free
	reqs      []requester      // input vcs currently routed to this port
	rr        int              // round-robin pointer into reqs
	paused    []bool           // per global vc: PFC pause received, not yet resumed
	pausedAt  []sim.Cycle      // cycle the pause frame was drained
	ecnThresh int              // downstream occupancy that triggers ECN marking
}

// Work counts what a router did, exactly: the counts are determined by the
// seed and identical at every shard count, so a test can hold them to a
// ceiling (work per event, not wall time per event).
type Work struct {
	Ticks          int64 // Tick calls
	WiresDrained   int64 // input wires (flit links, credit wires) touched by receive
	AllocPasses    int64 // allocate calls
	AllocGrants    int64 // heads given an output port and VC
	FlitsForwarded int64 // flits sent downstream
}

// Add accumulates o into w.
func (w *Work) Add(o Work) {
	w.Ticks += o.Ticks
	w.WiresDrained += o.WiresDrained
	w.AllocPasses += o.AllocPasses
	w.AllocGrants += o.AllocGrants
	w.FlitsForwarded += o.FlitsForwarded
}

// maxOutPorts is the width of Router.reqMask.
const maxOutPorts = 64

// Router is a generic virtual-channel switch.
type Router struct {
	cfg      Config
	in       []inPort
	out      []outPort
	buffered int // total flits in input buffers (fast-path skip)
	unrouted int // input VCs whose front flit is an unrouted head
	inUsed   []bool
	allocSeq int64       // monotone stamp source for vcState.waitSeq
	allocQ   []requester // scratch: unrouted heads ordered oldest-first

	// arrive is the arrival board: the next-arrival cycle of every input
	// wire, one word each — the flit links of the input ports, then the
	// credit wires of the output ports; sim.Never for an empty or unconnected
	// one. The wires keep their words current (link.Wire.Board), so receive
	// and the sleep bounds scan this array and touch a channel only when it
	// has a due event.
	arrive []sim.Cycle
	// reqMask has bit o set while out[o].reqs is non-empty: send and
	// sleepBlocked visit the requested output ports, not every port.
	reqMask uint64
	// free is the free board: free[o] is output o's flit link FreeAt(), the
	// first cycle it can take a flit. Only this router sends on that link, so
	// send keeps the word current, and send and sleepBlocked read it here
	// instead of following out[o].ch to the link.
	free []sim.Cycle
	// allocDirty is raised wherever an allocation outcome can change — a head
	// becomes unrouted, a tail send frees a downstream VC — and lowered by
	// allocate. A head fails only when every candidate VC is owned, before
	// any tie-break draw, so a pass over unchanged state grants nothing,
	// draws nothing and is skipped.
	allocDirty bool
	work       Work

	// PFC/ECN state resolved from cfg.Fabric.
	pfcOn           bool
	pfcXOff, pfcXOn int
	ecnOn           bool

	act sim.Activity
}

// New returns a Router for cfg. Ports start unconnected; unconnected ports
// are ignored.
func New(cfg Config) *Router {
	if cfg.VCs < 1 {
		cfg.VCs = 1
	}
	if cfg.BufFlits < 1 {
		cfg.BufFlits = 1
	}
	if cfg.OutPorts > maxOutPorts {
		panic(fmt.Sprintf("router %d: %d output ports exceed the %d-bit request mask", cfg.ID, cfg.OutPorts, maxOutPorts))
	}
	r := &Router{cfg: cfg}
	nvc := packet.NumClasses * cfg.VCs
	r.in = make([]inPort, cfg.InPorts)
	// One slab holds every input VC's flit buffer, cut into per-(port, vc)
	// rings of BufFlits slots.
	slab := make([]packet.Flit, cfg.InPorts*nvc*cfg.BufFlits)
	for i := range r.in {
		r.in[i].vcs = make([]vcState, nvc)
		for v := range r.in[i].vcs {
			off := (i*nvc + v) * cfg.BufFlits
			r.in[i].vcs[v].buf = slab[off : off+cfg.BufFlits]
			r.in[i].vcs[v].outPort = -1
		}
		r.in[i].pfcActive = make([]bool, nvc)
	}
	r.out = make([]outPort, cfg.OutPorts)
	r.free = make([]sim.Cycle, cfg.OutPorts)
	r.arrive = make([]sim.Cycle, cfg.InPorts+cfg.OutPorts)
	for i := range r.arrive {
		r.arrive[i] = sim.Never
	}
	r.inUsed = make([]bool, cfg.InPorts)
	r.allocQ = make([]requester, 0, cfg.InPorts*nvc)
	if cfg.Fabric.PFC.Enable {
		r.pfcOn = true
		r.pfcXOff, r.pfcXOn = cfg.Fabric.PFC.thresholds(cfg.BufFlits)
	}
	r.ecnOn = cfg.Fabric.ECN.Enable
	return r
}

// ID returns the router's configured identifier.
func (r *Router) ID() int { return r.cfg.ID }

// VCs returns the per-class virtual channel count.
func (r *Router) VCs() int { return r.cfg.VCs }

// BufFlits returns the per-VC input buffer depth.
func (r *Router) BufFlits() int { return r.cfg.BufFlits }

// Activity implements sim.IdleTicker: the router sleeps whenever it holds
// no flits, and flit arrivals on any input re-wake it.
func (r *Router) Activity() *sim.Activity { return &r.act }

// ConnectIn attaches ch as the flit source for input port p. Arrivals on ch
// wake a sleeping router.
func (r *Router) ConnectIn(p int, ch *Channel) {
	r.in[p].ch = ch
	ch.Flits.Observe(&r.act)
	ch.Flits.Board(&r.arrive[p])
}

// ConnectOut attaches ch as output port p's channel. downstreamDepth is the
// per-VC buffer depth of the input port at the far end (the initial credit).
// Credit returns on ch wake the router: a router holding flits may be
// blocked solely on downstream credits.
func (r *Router) ConnectOut(p int, ch *Channel, downstreamDepth int) {
	op := &r.out[p]
	op.ch = ch
	r.free[p] = ch.Flits.FreeAt()
	ch.Credits.Observe(&r.act)
	ch.Credits.Board(&r.arrive[len(r.in)+p])
	op.initial = downstreamDepth
	n := packet.NumClasses * r.cfg.VCs
	op.credits = make([]int, n)
	op.owner = make([]*packet.Packet, n)
	// At most every input VC can be routed here at once; sizing reqs for
	// that worst case makes requester churn allocation-free.
	op.reqs = make([]requester, 0, r.cfg.InPorts*n)
	for i := range op.credits {
		op.credits[i] = downstreamDepth
	}
	op.paused = make([]bool, n)
	op.pausedAt = make([]sim.Cycle, n)
	op.ecnThresh = r.cfg.Fabric.ECN.threshold(downstreamDepth)
}

// BufferedFlits reports the total flits held in this router's input buffers
// (used by volume/occupancy statistics).
func (r *Router) BufferedFlits() int { return r.buffered }

// Work reports the router's exact work counts so far.
func (r *Router) Work() Work { return r.work }

// Tick advances the router one cycle: drain arrivals and credits, allocate
// routes and output VCs for new head flits, then forward one flit per free
// output port. A tick that does none of those things leaves the router at a
// fixed point, and the router sleeps until an event that can break it.
func (r *Router) Tick(now sim.Cycle) {
	r.work.Ticks++
	progress := r.receive(now)
	if r.buffered == 0 {
		r.sleepEmpty()
		return
	}
	if r.unrouted > 0 && r.allocDirty && r.allocate() {
		progress = true
	}
	if r.send(now) {
		progress = true
	}
	if r.buffered == 0 {
		r.sleepEmpty()
	} else if !progress {
		r.sleepBlocked(now)
	}
}

// sleepEmpty parks the router until the next arrival on any input wire. With
// empty VC queues there are no sendable requesters, so allocation and
// forwarding are no-ops until a flit arrives; credit returns could be drained
// lazily, but waking for them too makes the set of cycles a router ticks a
// function of the simulated events alone, the same at every shard count
// (whether a send's wake edge or the sleep came first no longer matters).
// Wire observers re-arm the router for sends issued after it fell asleep.
func (r *Router) sleepEmpty() {
	r.act.Sleep(r.nextArrival())
}

// nextArrival is the earliest cycle on the arrival board.
func (r *Router) nextArrival() sim.Cycle {
	next := sim.Never
	for _, at := range r.arrive {
		if at < next {
			next = at
		}
	}
	return next
}

// sleepBlocked parks a router that holds flits but made no progress this
// tick: nothing arrived, nothing allocated, nothing forwarded. Every reason
// a flit is stuck resolves only through an external event — a flit arrival
// (SAF completion, missing body flits), a credit return (exhausted
// downstream buffers), or an occupied output link going free — and
// VC-ownership conflicts resolve only via this router's own tail sends,
// which are progress and keep it awake. So the state is a fixed point until
// the earliest such event, and skipping to it is bit-identical to ticking
// through.
func (r *Router) sleepBlocked(now sim.Cycle) {
	next := r.nextArrival()
	for m := r.reqMask; m != 0; m &= m - 1 {
		if at := r.free[bits.TrailingZeros64(m)]; at > now && at < next {
			next = at
		}
	}
	r.act.Sleep(next)
}

// receive drains the input wires the arrival board shows due — flit arrivals
// first, then credit returns, each in port order — reporting whether it
// drained anything (state changed). The board word is the wire's Ready test:
// a drain loop runs until its wire's word moves past now.
func (r *Router) receive(now sim.Cycle) bool {
	drained := 0
	for i := range r.arrive {
		if r.arrive[i] > now {
			continue
		}
		drained++
		if i < len(r.in) {
			r.recvFlits(now, i)
		} else {
			r.recvCredits(now, i-len(r.in))
		}
	}
	r.work.WiresDrained += int64(drained)
	return drained > 0
}

// recvFlits buffers every flit that has arrived on input port i.
func (r *Router) recvFlits(now sim.Cycle, i int) {
	ip, due := &r.in[i], &r.arrive[i]
	for *due <= now {
		f, _ := ip.ch.Flits.Recv(now)
		v := &ip.vcs[f.VC]
		if v.n >= r.cfg.BufFlits {
			panic(fmt.Sprintf("router %d: input %d vc %d overflow (credit protocol violated)", r.cfg.ID, i, f.VC))
		}
		v.push(f)
		r.buffered++
		if v.n == 1 && f.Head() && v.outPort < 0 {
			v.waitSeq = r.allocSeq
			r.allocSeq++
			r.unrouted++
			r.allocDirty = true
		}
		if r.pfcOn && !ip.pfcActive[f.VC] && v.n >= r.pfcXOff {
			ip.pfcActive[f.VC] = true
			ip.ch.Credits.Send(now, Credit{VC: f.VC, Kind: PFCPause})
		}
	}
}

// recvCredits applies every credit-wire frame that has arrived on output
// port o.
func (r *Router) recvCredits(now sim.Cycle, o int) {
	op, due := &r.out[o], &r.arrive[len(r.in)+o]
	for *due <= now {
		c, _ := op.ch.Credits.Recv(now)
		switch c.Kind {
		case PFCPause:
			op.paused[c.VC] = true
			op.pausedAt[c.VC] = now
		case PFCResume:
			op.paused[c.VC] = false
		default:
			op.credits[c.VC]++
			if op.credits[c.VC] > op.initial {
				// Credits can never exceed the initial grant.
				panic(fmt.Sprintf("router %d: credit overflow on out %d vc %d", r.cfg.ID, o, c.VC))
			}
		}
	}
}

// allocate assigns an output port and downstream VC to buffered head flits
// that lack one, reporting whether any assignment was made. Heads are served
// oldest-first by the cycle they became allocatable: a contested VC always
// goes to the longest-waiting head, so no input can be starved by saturated
// streams on its neighbors — a rotating scan pointer shared across outputs
// can resonate with periodic traffic and skip the same head forever.
//
//lint:allow(hotalloc) requester-list growth is bounded by the port count; capacity is reached during warm-up
func (r *Router) allocate() bool {
	r.allocDirty = false
	r.work.AllocPasses++
	assigned := false
	// Collect every unrouted head, insertion-sorted by age. The candidate
	// count is bounded by the input VC total and is usually 1-2; the scan
	// stops as soon as all unrouted heads are found.
	heads := r.allocQ[:0]
	for i := 0; i < len(r.in) && len(heads) < r.unrouted; i++ {
		ip := &r.in[i]
		if ip.ch == nil {
			continue
		}
		for vc := range ip.vcs {
			vs := &ip.vcs[vc]
			if vs.outPort >= 0 || vs.n == 0 || !vs.front().Head() {
				continue
			}
			j := len(heads)
			heads = append(heads, requester{i, vc})
			for j > 0 && r.in[heads[j-1].in].vcs[heads[j-1].vc].waitSeq > vs.waitSeq {
				heads[j], heads[j-1] = heads[j-1], heads[j]
				j--
			}
		}
	}
	r.allocQ = heads
	for _, c := range heads {
		inIdx, vcIdx := c.in, c.vc
		ip := &r.in[inIdx]
		v := &ip.vcs[vcIdx]
		p := v.front().Pkt
		if !v.choicesOK {
			v.choices = r.cfg.Route(inIdx, p, v.choices[:0])
			v.choicesOK = true
			if len(v.choices) == 0 {
				panic(fmt.Sprintf("router %d: no route for %v on in %d", r.cfg.ID, p, inIdx))
			}
		}
		choices := v.choices
		bestPort, bestVC, bestScore, ties := -1, -1, -1, 0
		classBase := int(p.Class) * r.cfg.VCs
		for _, ch := range choices {
			op := &r.out[ch.Port]
			if op.ch == nil {
				continue
			}
			cands := ch.VCs
			if len(cands) == 0 {
				cands = allVCs(r.cfg.VCs)
			}
			for _, cvc := range cands {
				g := classBase + cvc
				if op.owner[g] != nil {
					continue
				}
				score := op.credits[g]
				switch {
				case score > bestScore:
					bestPort, bestVC, bestScore, ties = ch.Port, g, score, 1
				case score == bestScore && r.cfg.RNG != nil:
					// Reservoir sampling for an unbiased tie-break.
					ties++
					if r.cfg.RNG.Intn(ties) == 0 {
						bestPort, bestVC = ch.Port, g
					}
				}
			}
		}
		if bestPort < 0 {
			continue // every candidate VC is owned; retry once a tail send frees one
		}
		op := &r.out[bestPort]
		op.owner[bestVC] = p
		op.reqs = append(op.reqs, requester{inIdx, vcIdx})
		r.reqMask |= 1 << uint(bestPort)
		v.outPort, v.outVC = bestPort, bestVC
		v.choicesOK = false
		r.unrouted--
		r.work.AllocGrants++
		assigned = true
	}
	return assigned
}

// send forwards at most one flit per output port, round-robin among the
// input VCs routed to it, subject to credits, link availability, one flit
// per input port per cycle, and (in SAF mode) whole-packet buffering. It
// reports whether any flit was forwarded.
//
//lint:allow(hotalloc) in-place requester removal append never exceeds the backing array
func (r *Router) send(now sim.Cycle) bool {
	sent := false
	for i := range r.inUsed {
		r.inUsed[i] = false
	}
	// Tail sends clear bits of reqMask as they go; the loop runs over the
	// mask as it stood on entry (nothing in send sets a bit).
	for m := r.reqMask; m != 0; m &= m - 1 {
		o := bits.TrailingZeros64(m)
		if r.free[o] > now {
			continue // the link is still serializing an earlier flit
		}
		op := &r.out[o]
		n := len(op.reqs)
		ri := op.rr
		if ri >= n {
			ri = 0
		}
		for k := 0; k < n; k++ {
			if k > 0 {
				ri++
				if ri == n {
					ri = 0
				}
			}
			req := op.reqs[ri]
			if r.inUsed[req.in] {
				continue
			}
			ip := &r.in[req.in]
			v := &ip.vcs[req.vc]
			if v.n == 0 || op.credits[v.outVC] <= 0 {
				continue
			}
			if r.pfcOn && op.paused[v.outVC] {
				continue
			}
			if r.cfg.SAF && !r.tailBuffered(v) {
				if v.n >= r.cfg.BufFlits {
					panic(fmt.Sprintf("router %d: SAF buffer (%d flits) smaller than packet %v", r.cfg.ID, r.cfg.BufFlits, v.front().Pkt))
				}
				continue
			}
			f := v.pop()
			r.buffered--
			f.VC = v.outVC
			if r.ecnOn && f.Head() && op.initial-op.credits[v.outVC] >= op.ecnThresh {
				// Egress congestion: the downstream buffer (plus in-flight
				// flits) for this VC is at the marking threshold. The head
				// flit is forwarded by exactly one router at a time, so the
				// mark is race-free and deterministic.
				f.Pkt.ECN = true
			}
			op.ch.Flits.Send(now, f)
			r.free[o] = op.ch.Flits.FreeAt()
			op.credits[v.outVC]--
			if ip.ch != nil {
				ip.ch.Credits.Send(now, Credit{VC: req.vc})
				if r.pfcOn && ip.pfcActive[req.vc] && v.n <= r.pfcXOn {
					ip.pfcActive[req.vc] = false
					ip.ch.Credits.Send(now, Credit{VC: req.vc, Kind: PFCResume})
				}
			}
			r.inUsed[req.in] = true
			r.work.FlitsForwarded++
			sent = true
			if f.Tail() {
				// A downstream VC is free again: heads blocked on it (and the
				// next packet's head, if one is now at the front) can allocate.
				op.owner[v.outVC] = nil
				r.allocDirty = true
				v.outPort, v.outVC = -1, -1
				if v.n > 0 {
					v.waitSeq = r.allocSeq
					r.allocSeq++
					r.unrouted++
				}
				op.reqs = append(op.reqs[:ri], op.reqs[ri+1:]...)
				if len(op.reqs) == 0 {
					r.reqMask &^= 1 << uint(o)
				}
				op.rr = ri % max(1, len(op.reqs))
			} else {
				op.rr = (ri + 1) % n
			}
			break
		}
	}
	return sent
}

// tailBuffered reports whether the tail flit of the packet at the head of v
// is already buffered (store-and-forward eligibility).
func (r *Router) tailBuffered(v *vcState) bool {
	p := v.front().Pkt
	for i := v.n - 1; i >= 0; i-- {
		if fl := v.at(i); fl.Pkt == p && fl.Tail() {
			return true
		}
	}
	return false
}

var vcTables [][]int

func init() {
	vcTables = make([][]int, 17)
	for n := 1; n <= 16; n++ {
		t := make([]int, n)
		for i := range t {
			t[i] = i
		}
		vcTables[n] = t
	}
}

//lint:allow(hotalloc) cold fallback beyond the precomputed VC tables; paper configurations stay within the tables
func allVCs(n int) []int {
	if n < len(vcTables) {
		return vcTables[n]
	}
	t := make([]int, n)
	for i := range t {
		t[i] = i
	}
	return t
}
