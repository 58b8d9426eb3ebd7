// Package node models the processors attached to the network: software
// send/receive overheads measured on the CM-5 (Table 2, §2.4.3) and a
// blocking programming interface in which workloads read like the
// Split-C/CMAM programs that drove the paper's simulator.
//
// Programs are step machines; primitives are engine-side state. A program is
// a Machine: a resumable step function that Proc.Tick calls, in the engine's
// own goroutine, each time the processor's primitive in progress completes.
// A step runs the program up to its next primitive, which it issues with one
// of Proc's Issue methods — the op-setting half of a blocking primitive — and
// returns. The loops inside the primitives — Send's arrival service and
// backpressure retry, Recv's poll misses, Barrier's park-and-service wait,
// every charged overhead — never run in program code: a primitive records
// what it is waiting for as an operation state on the Proc (opKind plus the
// packet or barrier it concerns), and Proc.Tick advances that state cycle by
// cycle, making the NIC calls the CM-5 message layer would make. Where
// nothing the processor could do would change anything it sleeps: through a
// charged overhead until the clock runs it out, and — refused by its NIC with
// nothing to service, or waiting at a barrier — until the NIC raises one of
// its two wake edges (nic.NIC.ObserveProc) or the barrier releases. A
// processor stalled for a thousand cycles behind NIC backpressure therefore
// costs two TrySend calls, plus one per arrival it services meanwhile.
//
// A Program — a closure over the blocking forms Send, Recv, RecvOr, Poll,
// Consume and Barrier — still works: it runs through the closure adapter, a
// Machine whose step hands the baton to the program's own goroutine and
// waits for it to issue its next primitive, so a closure costs one goroutine
// handoff per primitive. The goroutine starts at the processor's first step.
// Proc.Run hands the processor over to a Machine for the rest of its life:
// it never returns, and the program's goroutine exits, so the shipped
// workloads cost one handoff per processor's lifetime and hold no goroutine
// while they run. On a serial engine at most one program runs at any
// instant; in a sharded one, programs in different shards step concurrently,
// so workload state shared across nodes needs a lock (as Barrier's
// bookkeeping has) or a serial engine (as the applications, whose nodes
// share one message layer, use).
//
// The callbacks a program passes in (Barrier's handler, RecvOr's predicate)
// run engine-side while their primitive is in progress: they may touch
// workload state but must not call or issue a primitive. Reception is by
// polling only, as in the paper (§3: "only polling message reception is
// allowed").
package node

import (
	"fmt"
	"sync"

	"nifdy/internal/nic"
	"nifdy/internal/packet"
	"nifdy/internal/ring"
	"nifdy/internal/sim"
)

// Costs models per-operation software overhead in processor cycles. The
// defaults follow §2.4.3 and Table 2 (the CM-5 measurements; a couple of
// Table 2 cells are illegible in the source scan, so the working values the
// paper itself uses in its analysis are taken instead).
type Costs struct {
	// Send is the total software cost of sending a packet (T_send).
	Send sim.Cycle
	// Recv is the cost of dispatching, handling, and returning from a
	// received packet (T_receive).
	Recv sim.Cycle
	// Poll is the cost of polling when no message is pending.
	Poll sim.Cycle
	// ReorderPenalty is the extra per-packet receive cost when the software
	// layer must reconstruct transmission order itself (no in-order
	// delivery). [KC94] measured reordering at up to 30% of transfer time;
	// the penalty applies to multi-packet transfers on out-of-order fabrics.
	ReorderPenalty sim.Cycle
}

// CM5Costs returns the paper's calibration: T_send=40, T_receive=60,
// poll(empty)=22 (§2.4.3, Table 2), with a default reorder penalty of 30%
// of the receive cost per [KC94].
func CM5Costs() Costs {
	return Costs{Send: 40, Recv: 60, Poll: 22, ReorderPenalty: 18}
}

// Barrier is an idealized global barrier (the simulator feature of §3:
// "global barriers can be included between send bursts").
//
// Participants may live in different engine shards, so arrival bookkeeping
// is mutex-protected, and the release itself is deferred to the engine's
// tick/flush boundary (Engine.AtBarrier), where no shard is ticking: every
// participant — including the last arriver — resumes at the next cycle,
// making the release instant independent of tick order and so identical for
// any shard count. gen is read without the lock by waiting processors; that
// is race-free because it is only written at the barrier drain, which the
// engine's phase barriers order against every tick.
type Barrier struct {
	n       int
	mu      sync.Mutex
	arrived int
	gen     uint64
	// waiters are the activities of processors parked at the barrier; the
	// release wakes them all. A processor enlists once per generation however
	// often it re-parks, so n slots always suffice.
	waiters []*sim.Activity
	// onRelease is release as a func value, bound once: staging it with
	// Engine.AtBarrier must not allocate per generation.
	onRelease func(sim.Cycle)
}

// NewBarrier returns a barrier for n participants.
func NewBarrier(n int) *Barrier {
	b := &Barrier{n: n, waiters: make([]*sim.Activity, 0, n)}
	b.onRelease = b.release
	return b
}

// release is the deferred completion: bump the generation and schedule every
// parked participant for the next cycle. Runs at the tick/flush boundary.
func (b *Barrier) release(now sim.Cycle) {
	b.mu.Lock()
	b.gen++
	for _, a := range b.waiters {
		a.WakeAt(now + 1)
	}
	b.waiters = b.waiters[:0]
	b.mu.Unlock()
}

// enlist adds a parking processor's activity to the release's wake list.
func (b *Barrier) enlist(a *sim.Activity) {
	b.mu.Lock()
	n := len(b.waiters)
	if n == cap(b.waiters) {
		panic(fmt.Sprintf("node: more than %d processors parked at one barrier generation", b.n))
	}
	b.waiters = b.waiters[:n+1]
	b.waiters[n] = a
	b.mu.Unlock()
}

type abortSentinel struct{}

// Machine is a node's application code as a resumable step function: the
// firesim endpoint shape, where the constructor is init(), Step is tick() and
// its false result is done().
type Machine interface {
	// Step runs the program from where its last primitive left it up to its
	// next one, issues that primitive with one of Proc's Issue methods and
	// reports true; it reports false, issuing nothing, when the program has
	// ended. It runs in the engine's goroutine, so it must not call a
	// blocking primitive.
	Step(p *Proc) bool
}

// Program is a node's application code as a closure over Proc's blocking
// primitives. It runs on a goroutine of its own, resumed once per completed
// primitive, until it returns or hands the processor to a Machine with Run.
type Program func(p *Proc)

// opKind is the primitive a processor is inside of: what Tick advances, in
// the engine's goroutine, until the primitive completes and the program takes
// its next step.
type opKind uint8

const (
	// opRun: no primitive is in progress. The program runs as soon as the
	// clock reaches busyUntil (Consume, and the tail of every primitive, is
	// just this wait).
	opRun opKind = iota
	// opSendDrain: Send is servicing the arrivals pending at the NIC, one
	// charged handler at a time, before it pays the send overhead.
	opSendDrain
	// opSendRetry: Send has paid T_send and offers out to the NIC, servicing
	// arrivals while the NIC refuses it (§4.5) and sleeping, when there are
	// none, until the NIC has room or a packet to poll.
	opSendRetry
	// opRecv: Recv/RecvOr is polling, paying the empty-poll cost per miss.
	opRecv
	// opBarrier: Barrier has arrived at bar and services arrivals until the
	// generation it joined is released.
	opBarrier
)

// Work counts what a processor did, exactly: the counts are determined by the
// seed, so a test can hold them to a ceiling.
type Work struct {
	// Handoffs counts the baton passes to a closure Program's goroutine: one
	// per primitive the closure completes, and one in all for a Program that
	// is a call to Run.
	Handoffs int64
	// Primitives counts completed primitives, the program's start included:
	// after each, Tick steps the program to its next one.
	Primitives int64
}

// Proc is one simulated processor.
type Proc struct {
	id    int
	nic   nic.NIC
	costs Costs

	// busyUntil is the cycle the software overhead charged so far runs to;
	// neither the program nor its current operation proceeds before it.
	busyUntil sim.Cycle
	now       sim.Cycle
	done      bool

	// m is the machine Tick steps: nil before Start, then the closure
	// adapter g until the program calls Run, and the machine it handed over
	// from then on.
	m Machine
	g goroutine
	// running is true while the program goroutine holds the baton.
	running bool
	work    Work

	// op is the primitive in progress; the fields below are its operands.
	op opKind
	// out is Send's packet, held from the call until the NIC takes it.
	out *packet.Packet
	// arrival is the packet whose receive overhead is being charged; when
	// the charge completes it goes to the inbox (Send), the handler
	// (Barrier) or the program (Recv, Poll).
	arrival *packet.Packet
	// stop is RecvOr's predicate (nil for Recv).
	stop func() bool
	// bar, barGen and handler are Barrier's operands. parked marks a wait
	// with nothing to service: its wake edges — the release wakes every
	// waiter, and the NIC wakes its processor when a packet becomes pollable
	// — cover everything that can end it, so the processor sleeps. enlisted
	// records that the release's wake list already holds this processor.
	bar      *Barrier
	barGen   uint64
	handler  func(*packet.Packet)
	parked   bool
	enlisted bool

	// act is the quiescence latch, and the activity the NIC wakes. Charged
	// overheads sleep the processor to busyUntil: they are satisfied by the
	// clock alone, so waking exactly then is indistinguishable from polling
	// every cycle. A stalled send and a parked barrier wait sleep to Never:
	// what ends them raises a wake edge in the cycle polling would see it.
	act sim.Activity

	// inbox holds packets whose receive handlers already ran (and were
	// charged) while a send was stalled; Poll serves them first, free.
	inbox ring.Deque[*packet.Packet]

	// eng/shard are set by the engine at registration (sim.Binder); Barrier
	// uses them to defer its release to the engine's tick/flush boundary.
	eng   *sim.Engine
	shard int
}

// goroutine is the closure adapter: the Machine that runs a Program on a
// goroutine of its own. The first Step starts the goroutine; each later one
// hands it the baton. Either way Step waits until the program issues its
// next primitive, calls Run or returns. Processors in one shard step one at
// a time, so goroutines that exit at their first Run come and go one at a
// time, and the runtime reuses their stacks.
type goroutine struct {
	prog   Program
	resume chan sim.Cycle
	yield  chan struct{}
	// started is set by the first Step, exited once the goroutine is done.
	started, exited bool
}

// Step implements Machine.
func (g *goroutine) Step(p *Proc) bool {
	p.work.Handoffs++
	p.running = true
	if g.started {
		g.resume <- p.now
	} else {
		g.started = true
		go g.run(p)
	}
	<-g.yield
	p.running = false
	return !g.exited
}

// run is the program goroutine's body.
func (g *goroutine) run(p *Proc) {
	defer g.exit()
	g.prog(p)
}

// exit ends the program goroutine: it recovers the unwinding of a Stop or a
// Run and hands the baton back for the last time.
func (g *goroutine) exit() {
	if r := recover(); r != nil {
		if _, ok := r.(abortSentinel); !ok {
			panic(r)
		}
	}
	g.exited = true
	g.yield <- struct{}{}
}

// await parks the program goroutine until the engine resumes it, unwinding
// the program if the processor was stopped instead.
func (g *goroutine) await() {
	if <-g.resume < 0 {
		panic(abortSentinel{})
	}
}

// NewProc returns a processor running program on n's NIC. Call Start before
// the first engine cycle and Stop when the experiment ends.
func NewProc(id int, n nic.NIC, costs Costs, program Program) *Proc {
	p := &Proc{
		id: id, nic: n, costs: costs,
		g: goroutine{prog: program, resume: make(chan sim.Cycle), yield: make(chan struct{})},
	}
	// A freshly pollable packet re-runs a processor parked at a barrier or
	// behind a refused send; so does room for the packet refused.
	n.ObserveProc(&p.act)
	return p
}

// ID reports the node number.
func (p *Proc) ID() int { return p.id }

// NIC returns the processor's network interface.
func (p *Proc) NIC() nic.NIC { return p.nic }

// Done reports whether the program has finished.
func (p *Proc) Done() bool { return p.done }

// Work reports the processor's work counters.
func (p *Proc) Work() Work { return p.work }

// Start arms the program; its goroutine starts at the processor's first
// Tick.
func (p *Proc) Start() {
	if p.m != nil {
		panic(fmt.Sprintf("proc %d: double Start", p.id))
	}
	p.m = &p.g
}

// Stop ends the program: a goroutine still blocked inside a primitive
// unwinds. Safe to call after completion, before the first Tick and after
// Run.
func (p *Proc) Stop() {
	if p.m == nil || p.done {
		return
	}
	p.done = true
	if p.g.started && !p.g.exited {
		p.g.resume <- -1
		<-p.g.yield
	}
}

// Activity implements sim.IdleTicker: the processor sleeps through charged
// overheads, stalled sends and parked barrier waits, and permanently once its
// program completes.
func (p *Proc) Activity() *sim.Activity { return &p.act }

// BindEngine implements sim.Binder: the engine records where the processor
// ticks so Barrier can stage cross-shard releases.
func (p *Proc) BindEngine(e *sim.Engine, sh int) {
	p.eng = e
	p.shard = sh
}

// Tick implements sim.Ticker: advance the primitive in progress and, each
// time one completes, step the program to its next one.
func (p *Proc) Tick(now sim.Cycle) {
	if p.m == nil {
		return
	}
	p.now = now
	for !p.done && p.advance(now) {
		p.work.Primitives++
		p.done = !p.step()
	}
	if p.done {
		p.act.Sleep(sim.Never)
	}
}

// step runs the current machine's next step, reporting false once the
// program has ended. A closure that ends by calling Run has handed over a
// machine, whose first step runs within the same step.
func (p *Proc) step() bool {
	for {
		m := p.m
		if m.Step(p) {
			return true
		}
		if p.m == m {
			return false
		}
	}
}

// advance runs the operation in progress as far as cycle now allows. It
// reports true when the program is due to run, and false when the processor
// has nothing more to do this cycle, with act set to when it next has.
func (p *Proc) advance(now sim.Cycle) bool {
	for {
		if now < p.busyUntil {
			p.act.Sleep(p.busyUntil)
			return false
		}
		switch p.op {
		case opRun:
			return true
		case opSendDrain:
			// CMAM-style: every send first services pending arrivals. This
			// is what lets a faster upstream sender starve a pipeline stage —
			// each time the stage tries to send, another arrival's handler
			// runs first — and what the "with delay" variant of Figure 9
			// works around in software.
			p.shelve()
			if q, ok := p.nic.Recv(now); ok {
				p.charge(now, q)
			} else {
				p.spend(now, p.costs.Send)
				p.op = opSendRetry
			}
		case opSendRetry:
			p.shelve()
			if p.nic.TrySend(now, p.out) {
				p.out = nil
				p.op = opRun
			} else if q, ok := p.nic.Recv(now); ok {
				p.charge(now, q)
			} else {
				// NIC backpressure, and nothing to service. Retrying every
				// cycle would find the same until the NIC frees room or
				// queues an arrival, and it wakes the processor on both. The
				// NIC ticks before its processor, so an edge raised at cycle t
				// is acted on at t, exactly as the retry at t would have; a
				// wake for anything else re-checks and sleeps again.
				p.act.Sleep(sim.Never)
				return false
			}
		case opRecv:
			if p.arrival != nil || (p.stop != nil && p.stop()) {
				p.op, p.stop = opRun, nil // received and paid for, or told to stop
			} else if q, ok := p.inbox.PopFront(); ok {
				p.arrival, p.op, p.stop = q, opRun, nil
			} else if q, ok := p.nic.Recv(now); ok {
				p.charge(now, q)
			} else {
				p.spend(now, p.costs.Poll)
			}
		case opBarrier:
			if !p.serviceBarrier(now) {
				return false
			}
		}
	}
}

// serviceBarrier is opBarrier's step: hand arrivals to the handler until the
// generation joined is released. It reports false once the processor is
// parked with nothing to service.
func (p *Proc) serviceBarrier(now sim.Cycle) bool {
	if p.arrival != nil {
		p.handle(p.arrival)
		p.arrival = nil
	}
	for p.bar.gen == p.barGen {
		if p.parked {
			if p.nic.Pending() == 0 {
				p.act.Sleep(sim.Never)
				return false
			}
			p.parked = false
		}
		if q, ok := p.inbox.PopFront(); ok {
			p.handle(q)
			continue
		}
		if q, ok := p.nic.Recv(now); ok {
			p.charge(now, q)
			return true
		}
		// Park rather than poll: both ways the wait can end have wake edges
		// — the deferred release wakes every waiter, and the NIC's delivery
		// observer fires when a packet becomes pollable. The NIC ticks before
		// its processor, so a same-cycle delivery is still serviced this
		// cycle, exactly as polling would.
		if !p.enlisted {
			p.bar.enlist(&p.act)
			p.enlisted = true
		}
		p.parked = true
	}
	p.parked = false
	p.op, p.bar, p.handler = opRun, nil, nil
	return true
}

// spend charges n cycles of software overhead from cycle now.
func (p *Proc) spend(now, n sim.Cycle) {
	if p.busyUntil < now {
		p.busyUntil = now
	}
	p.busyUntil += n
}

// charge runs q's receive handler: the processor holds q as its arrival for
// the receive overhead, plus the reorder penalty where the software layer
// must reconstruct transmission order itself.
func (p *Proc) charge(now sim.Cycle, q *packet.Packet) {
	c := p.costs.Recv
	if q.Meta.Tag == TagNeedsReorder {
		c += p.costs.ReorderPenalty
	}
	p.arrival = q
	p.spend(now, c)
}

// shelve moves an arrival whose handler has now been paid for into the
// inbox, where Poll finds it free of charge.
func (p *Proc) shelve() {
	if p.arrival != nil {
		p.inbox.PushBack(p.arrival)
		p.arrival = nil
	}
}

func (p *Proc) handle(q *packet.Packet) {
	if p.handler != nil {
		p.handler(q)
	}
}

// issue starts primitive op (opRun for one that is only a charge). A
// primitive issued while another is in progress can only come from a
// callback that primitive runs, and would corrupt it; one issued before the
// last one's packet was taken would shelve that packet as handled.
func (p *Proc) issue(op opKind) {
	if p.op != opRun {
		panic(fmt.Sprintf("proc %d: primitive issued from a Barrier handler or RecvOr predicate", p.id))
	}
	if p.arrival != nil {
		panic(fmt.Sprintf("proc %d: primitive issued before the last one's packet was taken with Received", p.id))
	}
	p.op = op
}

// block hands the baton to the engine until the primitive the caller issued
// completes.
func (p *Proc) block() {
	if !p.running {
		panic(fmt.Sprintf("proc %d: blocking primitive called outside its Program's goroutine (from a Machine, Barrier handler or RecvOr predicate)", p.id))
	}
	p.g.yield <- struct{}{}
	p.g.await()
}

// Run hands the processor over to m for the rest of its life and never
// returns: m's first step runs in the cycle Run is called in, and the
// program ends when m does. The program goroutine unwinds (running the
// program's deferred calls) and exits, so m runs engine-side with no
// goroutine of its own. Only a Program may call it, not a Machine or a
// callback.
func (p *Proc) Run(m Machine) {
	if !p.running {
		panic(fmt.Sprintf("proc %d: Run called outside its Program's goroutine (from a Machine, Barrier handler or RecvOr predicate)", p.id))
	}
	p.m = m
	panic(abortSentinel{})
}

// Received returns the packet the last completed Recv, RecvOr or Poll
// received, or nil when it got none; a machine calls it in the step after
// issuing one of them.
func (p *Proc) Received() *packet.Packet {
	q := p.arrival
	p.arrival = nil
	return q
}

// Now reports the current simulated cycle.
func (p *Proc) Now() sim.Cycle { return p.now }

// Alloc returns a fresh packet from the node's free-list. Workloads that
// also Free retired deliveries run an allocation-free steady state; Alloc is
// always safe even if the program never frees anything.
func (p *Proc) Alloc() *packet.Packet { return p.nic.Pool().Get() }

// Free retires a packet back to the node's free-list. Only call it when the
// program holds the last live reference — i.e. on packets returned by
// Poll/Recv that the workload is completely done with, never on packets it
// has handed to Send or retained in its own data structures.
func (p *Proc) Free(pkt *packet.Packet) { p.nic.Pool().Put(pkt) }

// IssueConsume is Consume's step form.
func (p *Proc) IssueConsume(n sim.Cycle) {
	p.issue(opRun)
	p.spend(p.now, n)
}

// Consume models n cycles of local computation.
func (p *Proc) Consume(n sim.Cycle) {
	p.IssueConsume(n)
	p.block()
}

// IssueSend is Send's step form.
func (p *Proc) IssueSend(pkt *packet.Packet) {
	p.issue(opSendDrain)
	p.out = pkt
}

// Send hands pkt to the NIC, charging the software send overhead and
// stalling while the NIC applies backpressure. As in the CM-5 message
// layers, a stalled sender keeps polling the network to avoid deadlock, so
// incoming packets' handlers run — and are charged — before the send
// completes. That is exactly the swamping mechanism of §4.5: a flood of
// arrivals can keep a processor "continually receiving with no chance to
// send".
func (p *Proc) Send(pkt *packet.Packet) {
	p.IssueSend(pkt)
	p.block()
}

// IssuePoll is Poll's step form; Received returns its packet, or nil on a
// miss.
func (p *Proc) IssuePoll() {
	p.issue(opRun)
	if pkt, ok := p.inbox.PopFront(); ok {
		p.arrival = pkt
	} else if pkt, ok := p.nic.Recv(p.now); ok {
		p.charge(p.now, pkt)
	} else {
		p.spend(p.now, p.costs.Poll)
	}
}

// Poll makes one reception attempt: on a hit it charges the receive
// overhead and returns the packet; on a miss it charges the poll cost.
// Packets whose handlers already ran during a stalled send return first,
// free.
func (p *Proc) Poll() (*packet.Packet, bool) {
	p.IssuePoll()
	p.block()
	pkt := p.Received()
	return pkt, pkt != nil
}

// TagNeedsReorder marks packets whose receive handler performs software
// reordering/bookkeeping (set by the message layer on out-of-order fabrics).
const TagNeedsReorder = 1

// AuditHeld visits every packet the processor itself holds: those parked in
// its inbox (handled during a stalled send, not yet returned by Poll), the
// arrival whose receive overhead is being charged, and the outbound packet
// of a Send the NIC has not yet taken. Used by the invariant monitors'
// whole-packet census; call only at quiescent points.
func (p *Proc) AuditHeld(f func(where string, pkt *packet.Packet)) {
	p.inbox.ForEach(func(pkt *packet.Packet) { f("inbox", pkt) })
	if p.arrival != nil {
		f("receive handler", p.arrival)
	}
	if p.out != nil {
		f("unsent", p.out)
	}
}

// HasPending reports whether a packet is ready for the processor, either
// already handled into the inbox or waiting at the NIC.
func (p *Proc) HasPending() bool {
	return p.inbox.Len() > 0 || p.nic.Pending() > 0
}

// IssueRecv is Recv's step form; Received returns its packet.
func (p *Proc) IssueRecv() { p.issue(opRecv) }

// Recv polls until a packet arrives.
func (p *Proc) Recv() *packet.Packet {
	p.IssueRecv()
	p.block()
	return p.Received()
}

// IssueRecvOr is RecvOr's step form; Received returns its packet, or nil when
// stop ended it.
func (p *Proc) IssueRecvOr(stop func() bool) {
	p.issue(opRecv)
	p.stop = stop
}

// RecvOr polls until a packet arrives or stop, consulted before each poll,
// returns true; it returns (nil, false) in the latter case.
func (p *Proc) RecvOr(stop func() bool) (*packet.Packet, bool) {
	p.IssueRecvOr(stop)
	p.block()
	pkt := p.Received()
	return pkt, pkt != nil
}

// IssueBarrier is Barrier's step form.
func (p *Proc) IssueBarrier(b *Barrier, handler func(*packet.Packet)) {
	p.issue(opBarrier)
	b.mu.Lock()
	b.arrived++
	gen := b.gen
	last := b.arrived == b.n
	if last {
		b.arrived = 0
		if p.eng == nil {
			// Unbound (manually ticked, single-goroutine) fallback: release
			// immediately; this arriver's wait is already over.
			b.gen++
			for _, a := range b.waiters {
				a.Wake()
			}
			b.waiters = b.waiters[:0]
		}
	}
	b.mu.Unlock()
	if last && p.eng != nil {
		// Engine-driven release: runs at the tick/flush boundary, when no
		// shard is ticking, so waking parked participants in other shards is
		// race-free, and everyone (this arriver included) resumes at the
		// next cycle regardless of tick order within this cycle.
		p.eng.AtBarrier(p.shard, p.now, b.onRelease)
	}
	p.bar, p.barGen, p.handler, p.enlisted = b, gen, handler, false
}

// Barrier joins b, servicing arrivals with handler (which may be nil to
// drop them) while waiting — a node parked at a barrier must keep pulling
// packets or it would wedge every sender targeting it.
func (p *Proc) Barrier(b *Barrier, handler func(*packet.Packet)) {
	p.IssueBarrier(b, handler)
	p.block()
}
