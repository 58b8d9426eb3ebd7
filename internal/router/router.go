package router

import (
	"fmt"

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
}

// ConnectOut attaches ch as output port p's channel. downstreamDepth is the
// per-VC buffer depth of the input port at the far end (the initial credit).
// Credit returns on ch wake the router: a router holding flits may be
// blocked solely on downstream credits.
func (r *Router) ConnectOut(p int, ch *Channel, downstreamDepth int) {
	op := &r.out[p]
	op.ch = ch
	ch.Credits.Observe(&r.act)
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

// Tick advances the router one cycle: drain arrivals and credits, allocate
// routes and output VCs for new head flits, then forward one flit per free
// output port. A tick that does none of those things leaves the router at a
// fixed point, and the router sleeps until an event that can break it.
func (r *Router) Tick(now sim.Cycle) {
	progress := r.receive(now)
	if r.buffered == 0 {
		r.sleepEmpty()
		return
	}
	if r.unrouted > 0 && r.allocate() {
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

// sleepEmpty parks the router until the next flit arrival on any input port.
// With empty VC queues there are no output requesters, so allocation and
// forwarding are no-ops, and credit returns may be drained lazily on wake —
// the cumulative counts a future allocation observes are identical either
// way. Wire observers re-arm the router for sends issued after it fell
// asleep (a pending credit return may wake it early; the tick is then a
// harmless drain).
func (r *Router) sleepEmpty() {
	next := sim.Never
	for i := range r.in {
		if ch := r.in[i].ch; ch != nil {
			if at := ch.Flits.NextAt(); at < next {
				next = at
			}
		}
	}
	r.act.Sleep(next)
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
	next := sim.Never
	for i := range r.in {
		if ch := r.in[i].ch; ch != nil {
			if at := ch.Flits.NextAt(); at < next {
				next = at
			}
		}
	}
	for o := range r.out {
		op := &r.out[o]
		if op.ch == nil {
			continue
		}
		if at := op.ch.Credits.NextAt(); at < next {
			next = at
		}
		if len(op.reqs) > 0 {
			if at := op.ch.Flits.FreeAt(); at > now && at < next {
				next = at
			}
		}
	}
	r.act.Sleep(next)
}

// receive drains flit arrivals and credit returns, reporting whether it
// drained anything (state changed).
func (r *Router) receive(now sim.Cycle) bool {
	progress := false
	for i := range r.in {
		ip := &r.in[i]
		if ip.ch == nil {
			continue
		}
		for ip.ch.Flits.Ready(now) {
			f, _ := ip.ch.Flits.Recv(now)
			progress = true
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
			}
			if r.pfcOn && !ip.pfcActive[f.VC] && v.n >= r.pfcXOff {
				ip.pfcActive[f.VC] = true
				ip.ch.Credits.Send(now, Credit{VC: f.VC, Kind: PFCPause})
			}
		}
	}
	for i := range r.out {
		op := &r.out[i]
		if op.ch == nil {
			continue
		}
		for op.ch.Credits.Ready(now) {
			c, _ := op.ch.Credits.Recv(now)
			progress = true
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
					panic(fmt.Sprintf("router %d: credit overflow on out %d vc %d", r.cfg.ID, i, c.VC))
				}
			}
		}
	}
	return progress
}

// allocate assigns an output port and downstream VC to buffered head flits
// that lack one, reporting whether any assignment was made. Heads are served
// oldest-first by the cycle they became allocatable: a contested VC always
// goes to the longest-waiting head, so no input can be starved by saturated
// streams on its neighbors — a rotating scan pointer shared across outputs
// can resonate with periodic traffic and skip the same head forever.
//lint:allow(hotalloc) requester-list growth is bounded by the port count; capacity is reached during warm-up
func (r *Router) allocate() bool {
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
			continue // every candidate VC is owned; retry next cycle
		}
		op := &r.out[bestPort]
		op.owner[bestVC] = p
		op.reqs = append(op.reqs, requester{inIdx, vcIdx})
		v.outPort, v.outVC = bestPort, bestVC
		v.choicesOK = false
		r.unrouted--
		assigned = true
	}
	return assigned
}

// send forwards at most one flit per output port, round-robin among the
// input VCs routed to it, subject to credits, link availability, one flit
// per input port per cycle, and (in SAF mode) whole-packet buffering. It
// reports whether any flit was forwarded.
//lint:allow(hotalloc) in-place requester removal append never exceeds the backing array
func (r *Router) send(now sim.Cycle) bool {
	sent := false
	for i := range r.inUsed {
		r.inUsed[i] = false
	}
	for o := range r.out {
		op := &r.out[o]
		if op.ch == nil || len(op.reqs) == 0 || !op.ch.Flits.CanSend(now) {
			continue
		}
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
			op.credits[v.outVC]--
			if ip.ch != nil {
				ip.ch.Credits.Send(now, Credit{VC: req.vc})
				if r.pfcOn && ip.pfcActive[req.vc] && v.n <= r.pfcXOn {
					ip.pfcActive[req.vc] = false
					ip.ch.Credits.Send(now, Credit{VC: req.vc, Kind: PFCResume})
				}
			}
			r.inUsed[req.in] = true
			sent = true
			if f.Tail() {
				op.owner[v.outVC] = nil
				v.outPort, v.outVC = -1, -1
				if v.n > 0 {
					// The next packet's head is now at the front.
					v.waitSeq = r.allocSeq
					r.allocSeq++
					r.unrouted++
				}
				op.reqs = append(op.reqs[:ri], op.reqs[ri+1:]...)
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
