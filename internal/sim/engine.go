// Package sim provides the cycle-synchronous simulation engine underneath
// every experiment in this repository.
//
// The paper's simulator executes every cycle "explicitly and synchronously by
// all objects; at any time in the simulation, all objects have executed up to
// the same point" (§3). Here the contract is kept by one primitive,
// link.Wire. In a cycle every due Ticker reads its input wires and writes
// only state it owns and sends on the wires it is the unique writer of. A
// send in cycle t is delivered no earlier than cycle t+1 (wire latency is at
// least one cycle), and a send on a wire whose consumer lives in another shard
// is staged by the writer and merged by the writer shard's CrossFlusher at the
// window boundary. Because no Ticker observes another component's same-cycle
// writes, the result is independent of tick order.
//
// # One loop, two parameters
//
// Every engine runs the same loop (runWindowed) and differs only in its shard
// count and its synchronization window W. From a boundary T the loop runs the
// step hooks that are due, picks the window end E (the next point of the
// absolute W-aligned lattice, clamped by the run's budget and by hook
// clocks), lets every shard free-run cycles [T,E) — its Ticks, cycle by
// cycle, with no interaction between shards — and then, with no shard
// ticking, does the boundary work on the stepping goroutine: AtBarrier
// calls that are due, the cross-shard flushers in shard order, and the jump
// over idle cycles when no shard ticked. New() is one shard, NewParallel(n)
// is n shards with one persistent worker goroutine per shard beyond the first
// (released and joined once per window over channels; Close ends them), and W
// defaults to 1 — a boundary after every cycle, the paper's model. W > 1 is
// legal when no cross-shard event can arrive inside the window it was sent
// in; the fabric is then built for that W (router.NewChannelSync pads the
// channels), so W is a parameter of the model: a fixed W is bit-identical
// across every {shards} split.
//
// # Cost proportional to activity
//
//   - Quiescence skipping. A Ticker that also implements IdleTicker exposes
//     an Activity — a wake-time latch. Each shard keeps one bit per
//     component, set while it is queued (activeset.go). A component whose
//     Tick ends asleep past the next cycle clears its bit: parked, if it
//     sleeps until a wake edge (Sleep(Never)), or filed on the shard's timer
//     wheel under the cycle it sleeps to. Either way it costs zero
//     instructions per cycle until Activity.WakeAt sets the bit again or its
//     timer comes due; the sweep walks the set bits in index order through a
//     summary word per 64 words, visits components that Tick and nothing
//     else, and when nothing ticked in a window the loop jumps to the
//     earliest wake (idleScan). The protocol invariant is that a component
//     may only sleep while its Tick is a provable no-op, and must be woken no
//     later than the cycle any of its inputs can change; link.Wire drives
//     those wake edges automatically for observed wires. Under that
//     invariant skipping is bit-identical to ticking every cycle, which the
//     golden determinism tests in internal/harness enforce on full
//     experiment workloads.
//
//   - Dirty latch flushing. A cross-shard wire binds to its writer shard's
//     CrossFlusher (BindID) and marks itself by dense int32 ID in the windows
//     it is written (MarkID); the boundary flush walks the marked IDs and
//     nothing else.
//
// Shard discipline: components in different shards must not share mutable
// non-latched state. A component and every writer into its input wires must
// live in the same shard, with one exception: a link.Wire marked CrossShard
// is a legal cross-shard edge — its sends are staged on the writer's side,
// merged into the consumer-visible event list at the window boundary
// (CrossFlusher), and the consumer's Activity is woken only at merge time, on
// the stepping goroutine: a registered component's wake time and queue bit
// are plain words, so it may only be woken from its own shard or at a
// boundary. A hook clock's wake time is a plain word too, read at boundaries,
// so it may only be woken from shard 0 (which ticks on the stepping
// goroutine) or at a boundary. Cross-shard effects that are not wire sends
// (e.g. barrier releases waking processors in other shards) must be deferred
// to the boundary with AtBarrier. The harness partitions fabrics with
// topo.Network's partition hook so that each node's router, NIC, and
// processor share a shard and wires are the only cross-shard edges; under
// that discipline every shard count is bit-identical to one.
package sim

import (
	"math"
	"runtime"
)

// Cycle is a simulated time in cycles.
type Cycle = int64

// Never is a cycle later than any a simulation will reach; Activity.Sleep
// with Never parks a component until an explicit wake.
const Never Cycle = math.MaxInt64

// Ticker is a component that does work each cycle. During Tick it may read
// any latched state but must only mutate state it owns.
type Ticker interface {
	Tick(now Cycle)
}

// Latch is staged state bound to a Flusher. Flush is called at the first
// window boundary after it was marked, when no shard is ticking.
type Latch interface {
	Flush()
}

// TickFunc adapts a function to the Ticker interface.
type TickFunc func(now Cycle)

// Tick implements Ticker.
func (f TickFunc) Tick(now Cycle) { f(now) }

// Activity is the quiescence latch between one Ticker and the scheduler: it
// holds the next cycle at which the component must run. The component is
// not visited while that cycle is in the future.
//
// Lowering the wake time (Wake/WakeAt) is always safe and is how input
// sources re-arm a sleeping consumer. Raising it (Sleep) is the owning
// component's privilege, legal only when its Tick is a no-op until the given
// cycle. The zero value is awake.
type Activity struct {
	// wakeAt is the next cycle the component must run in. It is a plain
	// word: every producer runs on the owner's shard goroutine or at a window
	// boundary, never beside another (see the shard discipline above).
	wakeAt Cycle

	// Active-set linkage, installed by RegisterSharded: set/idx name the
	// owning shard's scheduler and the component's bit in it. A clear bit
	// implies the component is parked at Never or holds a timer filed no
	// later than wakeAt — it is queued again when that timer comes due, or
	// sooner by the first WakeAt that lowers its wake time. Unregistered
	// activities (hook clocks, standalone tests) have a nil set and skip the
	// enqueue entirely.
	set *activeSet
	idx int32
}

// WakeAt lowers the wake time to at most at: the component will run at cycle
// at (or earlier). Never raises the wake time.
func (a *Activity) WakeAt(at Cycle) {
	if a.wakeAt <= at {
		return
	}
	a.wakeAt = at
	// The wake time was lowered; make sure the component's bit is set. A
	// producer that finds the wake time at or before at and returns early
	// loses nothing: the component is queued, or holds a timer no later than
	// its wake time.
	if a.set != nil {
		a.set.enqueue(a.idx)
	}
}

// Wake makes the component runnable immediately.
func (a *Activity) Wake() { a.WakeAt(0) }

// Sleep sets the wake time to until unconditionally. Only the owning
// component may call it, and only when its Tick is a no-op for every cycle
// before until (all inputs quiet; any already-scheduled input event must be
// reflected in until).
func (a *Activity) Sleep(until Cycle) { a.wakeAt = until }

// Asleep reports whether the component would be skipped at cycle now.
func (a *Activity) Asleep(now Cycle) bool { return a.wakeAt > now }

// IdleTicker is a Ticker that participates in quiescence skipping. The
// engine consults the returned Activity (which must be stable across calls)
// before each Tick.
type IdleTicker interface {
	Ticker
	Activity() *Activity
}

// Flusher is a dirty list of latches: a latch registers once (BindID) and
// marks itself by dense ID (MarkID) on the cycles it is written; run flushes
// the marked latches and nothing else. The dirty list is a flat int32 array,
// so the hot marking path appends an integer, not an interface value. Each
// shard has one, its CrossFlusher, run at window boundaries.
type Flusher struct {
	table []Latch // BindID-registered latches, indexed by dense ID
	ids   []int32 // IDs marked dirty since the last run
}

// BindID registers l and returns its dense ID. The ID is only meaningful to
// this Flusher; callers store it and pass it back to MarkID. Registration
// happens at build time, before the first cycle.
func (f *Flusher) BindID(l Latch) int32 {
	f.table = append(f.table, l)
	return int32(len(f.table) - 1)
}

// MarkID schedules the latch registered under id for the next flush. Callers
// must mark at most once per flush per latch.
//
//lint:allow(hotalloc) dirty-ID growth is bounded by the number of bound latches; run() truncates in place so capacity is reused
func (f *Flusher) MarkID(id int32) { f.ids = append(f.ids, id) }

// run flushes the marked latches in mark order and clears the list.
func (f *Flusher) run() {
	for _, id := range f.ids {
		f.table[id].Flush()
	}
	f.ids = f.ids[:0]
}

// deferredCall is one AtBarrier entry: f runs at the window boundary `due`
// (with now = due-1, the last cycle before the boundary).
type deferredCall struct {
	due Cycle
	f   func(now Cycle)
}

// span is the half-open cycle range [from,to) a worker is released into.
type span struct{ from, to Cycle }

// shard is one scheduling unit: a tick list with its scheduler state and its
// cross flusher, plus the channel its worker waits on.
type shard struct {
	tickers  []Ticker
	acts     []*Activity    // parallel to tickers; nil entries always run
	as       activeSet      // queue bitmap and timer wheel (quiescence-skipping schedules)
	crossFl  Flusher        // run by the stepping goroutine at window boundaries, in shard order
	deferred []deferredCall // staged by this shard's Ticks, drained at window boundaries

	// ticked is whether any Tick ran in the last window: written by the
	// shard's free run, read by the stepping goroutine after the join.
	ticked bool

	start chan span // releases the worker into a window
}

// Binder is implemented by components that need to know which engine and
// shard they were registered into (e.g. to stage cross-shard work with
// AtBarrier). RegisterSharded calls BindEngine before the first cycle.
type Binder interface {
	BindEngine(e *Engine, sh int)
}

// stepHook is one RegisterStepHookClocked entry.
type stepHook struct {
	f     func(now Cycle)
	clock *Activity
}

// Stats counts what the run loop did with simulated time, and what the
// shards' schedulers did in it. Every count is determined by the seed, and
// Ticks is the same at every shard count; NotDue and TimersFiled depend on
// whether a wake lands mid-sweep or at a boundary, so they may not be.
type Stats struct {
	Windows      int64 // windows executed: every shard free-ran [T,E)
	IdleJumps    int64 // jumps over cycles in which provably nothing happens
	CyclesJumped int64 // cycles those jumps skipped
	Ticks        int64 // Tick calls
	NotDue       int64 // visits that found the component asleep
	TimersFiled  int64 // timers entered on a shard's wheel
}

// Engine drives a set of Tickers and Latches through simulated cycles.
type Engine struct {
	now    Cycle
	shards []shard

	skip       bool
	phase      chan struct{} // workers report the end of their window here
	joinBudget int           // the stepping goroutine's poll allowance on phase (pollRecv)
	closed     bool
	hooks      []stepHook
	stats      Stats

	// window is the conservative synchronization window W (SetWindow).
	window Cycle
}

// New returns an Engine with a single shard, with quiescence skipping
// enabled.
func New() *Engine {
	return newEngine(1)
}

// NewParallel returns an Engine with n shards that free-run each window
// concurrently on persistent workers (one long-lived goroutine per shard
// beyond the first; shard 0 runs on the stepping goroutine). Components
// registered in different shards must not share mutable non-latched state.
// Call Close when done with the engine: it ends the workers.
func NewParallel(n int) *Engine {
	if n < 1 {
		n = 1
	}
	e := newEngine(n)
	e.phase = make(chan struct{}, n-1)
	e.joinBudget = pollBudget
	for i := 1; i < n; i++ {
		s := &e.shards[i]
		s.start = make(chan span, 1)
		go e.worker(s)
	}
	return e
}

func newEngine(n int) *Engine {
	e := &Engine{shards: make([]shard, n), skip: true, window: 1}
	for i := range e.shards {
		e.shards[i].as.init()
	}
	return e
}

// Shards reports the number of shards.
func (e *Engine) Shards() int { return len(e.shards) }

// SetWindow sets the conservative synchronization window W (default 1: a
// boundary after every cycle). With W > 1 shards free-run from one boundary
// of the absolute W-aligned lattice to the next with no barrier in between,
// cross-shard wires drain once per window, AtBarrier work releases at lattice
// points, and RunUntil's predicate is evaluated at boundaries. This is only
// legal when every cross-shard wire arrival lands at or after the next
// boundary — the fabric must be built with the same window
// (router.NewChannelSync), making W a model parameter: a fixed W is
// bit-identical across all {shards} splits. Call before the first
// AtBarrier.
func (e *Engine) SetWindow(w Cycle) {
	if w < 1 {
		w = 1
	}
	e.window = w
}

// SetIdleSkip enables or disables quiescence skipping (enabled by default).
// Disabling it ticks every component every cycle — the reference schedule
// the golden determinism tests compare against.
func (e *Engine) SetIdleSkip(on bool) { e.skip = on }

// Stats reports the run loop's counters so far, with the schedulers' summed
// over the shards.
func (e *Engine) Stats() Stats {
	st := e.stats
	for i := range e.shards {
		as := &e.shards[i].as
		st.Ticks += as.ticks
		st.NotDue += as.notDue
		st.TimersFiled += as.filed
	}
	return st
}

// Register adds t to shard 0 (always valid).
func (e *Engine) Register(t Ticker) { e.RegisterSharded(0, t) }

// RegisterSharded adds t to the given shard. Within a shard, Tickers run in
// registration order. If t implements IdleTicker its Activity governs
// skipping. Registration is only legal between runs.
func (e *Engine) RegisterSharded(sh int, t Ticker) {
	sh %= len(e.shards)
	s := &e.shards[sh]
	idx := int32(len(s.tickers))
	s.tickers = Push(s.tickers, t)
	var a *Activity
	if it, ok := t.(IdleTicker); ok {
		a = it.Activity()
	}
	s.acts = Push(s.acts, a)
	s.as.register(idx, a)
	if b, ok := t.(Binder); ok {
		b.BindEngine(e, sh)
	}
}

// RegisterStepHookClocked adds f to the step hooks: functions run at a window
// boundary, on the stepping goroutine, before any shard ticks that cycle.
// Hooks observe the fully-flushed state of the previous cycle and must not
// mutate component state; they exist for whole-simulation work (sampling, the
// invariant monitors, the flow solver). a is the hook's clock, holding the
// next cycle at which the hook needs to run (the hook maintains it like a
// Ticker's Activity — Sleep forward from inside the hook, WakeAt from
// producers on shard 0 or at a boundary; an Activity never put to sleep runs
// the hook every cycle). f
// runs at exactly the cycles its clock is due in: a window ends early at a
// clock waking inside it, and idle jumps stop at the earliest clock.
func (e *Engine) RegisterStepHookClocked(f func(now Cycle), a *Activity) {
	e.hooks = append(e.hooks, stepHook{f, a})
}

// AtBarrier stages f to run at the next window boundary, on the stepping
// goroutine, after every shard has finished the window and before the
// following one begins. At that point no component is running, so f may
// safely touch state across shards (the canonical use is releasing a
// processor barrier whose waiters live in multiple shards). sh must be the
// shard of the Ticker staging the call and now the staging cycle — each
// shard's deferred list is single-writer while it ticks. Deferred functions
// run in shard order, then in staging order within a shard, making the drain
// deterministic.
//
// f's release cycle is quantized to the absolute window lattice: it runs
// with now = due-1 where due = now - now%W + W, regardless of incidental
// boundaries (Run chunk ends, hook-clock clamps); at W = 1 that is the
// boundary after the staging cycle. The quantization is what keeps barrier
// releases bit-identical across every shard count and any Run chunking.
//
//lint:allow(hotalloc) deferred-list growth is bounded by the calls staged per window; runDeferred compacts in place, so capacity is reused after warm-up
func (e *Engine) AtBarrier(sh int, now Cycle, f func(now Cycle)) {
	s := &e.shards[sh%len(e.shards)]
	s.deferred = append(s.deferred, deferredCall{due: now - now%e.window + e.window, f: f})
}

// runDeferred drains every shard's deferred entries that are due at or
// before the given boundary; later entries (staged under a clamped, earlier-
// than-lattice boundary) are retained. Each entry runs with now = due-1.
func (e *Engine) runDeferred(boundary Cycle) {
	for i := range e.shards {
		s := &e.shards[i]
		if len(s.deferred) == 0 {
			continue
		}
		kept := s.deferred[:0]
		for _, d := range s.deferred {
			if d.due <= boundary {
				d.f(d.due - 1)
			} else {
				kept = append(kept, d)
			}
		}
		for j := len(kept); j < len(s.deferred); j++ {
			s.deferred[j] = deferredCall{}
		}
		s.deferred = kept
	}
}

// CrossFlusher returns the flusher cross-shard wires bind to
// (link.Wire.CrossShard) for the given writer shard. The stepping goroutine
// runs it at every window boundary, sequentially in shard order: cross-shard
// merges then happen with no shard ticking and in a deterministic order.
func (e *Engine) CrossFlusher(sh int) *Flusher {
	return &e.shards[sh%len(e.shards)].crossFl
}

// Now returns the current cycle (the cycle about to be, or being, executed).
func (e *Engine) Now() Cycle { return e.now }

// pollBudget is the most non-blocking polls pollRecv makes before it blocks
// (about 200 µs); pollYield is how many of them pass between calls to
// runtime.Gosched, and the fewest a receive site's budget shrinks to.
const (
	pollBudget = 1 << 14
	pollYield  = 64
)

// windowYield is how many windows runWindowed runs between calls to
// runtime.Gosched. Nothing in a window blocks — processors are step
// machines, not goroutines the engine hands off to — so on one P the loop
// would give the runtime a scheduling point only at asynchronous preemption,
// every 10 ms: the garbage collector's fractional mark worker would wait that
// long, every allocation during the stretched mark would be marked live, and
// the next heap goal would inflate with it (peak RSS of back-to-back
// 3,000-cycle fabric cells rose from 10.9 to 12.5 MB without the yield).
// With nothing else runnable a Gosched is one trip through the scheduler.
const windowYield = 64

// pollRecv receives from c, polling before it parks. A window is tens of
// microseconds of work per shard, so the value is nearly always about to
// arrive, and a goroutine that parks in a blocking receive pays the
// scheduler's park/ready path on both sides of every window — more than the
// window itself. The Gosched keeps the polls from starving the sender when
// there are more shards than Ps. *budget is the receive site's allowance of
// polls: a receive that runs out of it and blocks halves it, one that does
// not adds pollYield, between pollYield and pollBudget. An engine nobody is
// running therefore costs nothing, and one whose sender cannot run while the
// receiver polls (more shards than CPUs, where Gosched yields nothing) stops
// paying for polls that cannot succeed. ok is false once c is closed.
func pollRecv[T any](c <-chan T, budget *int) (v T, ok bool) {
	n := *budget
	for i := 1; i <= n; i++ {
		select {
		case v, ok = <-c:
			*budget = min(n+pollYield, pollBudget)
			return v, ok
		default:
		}
		if i%pollYield == 0 {
			runtime.Gosched()
		}
	}
	*budget = max(n/2, pollYield)
	v, ok = <-c
	return v, ok
}

// worker is the persistent loop of one extra shard: free-run the window it
// is released into, report, wait for the next. The report is the window's
// only barrier. Close ends the loop by closing s.start.
func (e *Engine) worker(s *shard) {
	budget := pollBudget
	for {
		w, ok := pollRecv(s.start, &budget)
		if !ok {
			return
		}
		e.freeRun(s, w.from, w.to)
		e.phase <- struct{}{}
	}
}

// freeRun takes one shard through cycles [from,to) with no cross-shard
// interaction: cross wires stage until the boundary drain, and channel
// padding guarantees nothing staged by a peer shard can arrive before to.
// s.ticked aggregates over the window.
func (e *Engine) freeRun(s *shard, from, to Cycle) {
	ticked := false
	for now := from; now < to; now++ {
		if e.skip {
			ticked = s.as.sweep(s.tickers, s.acts, now) || ticked
		} else {
			for _, t := range s.tickers {
				t.Tick(now)
			}
			s.as.ticks += int64(len(s.tickers))
			ticked = ticked || len(s.tickers) > 0
		}
	}
	s.ticked = ticked
}

// Close ends the engine's persistent workers: each returns once it sees its
// start channel closed. An engine that has workers panics if run afterwards.
// Safe to call repeatedly, and a no-op for one-shard engines.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for i := 1; i < len(e.shards); i++ {
		close(e.shards[i].start)
	}
}

// Step executes one cycle: the run loop with a budget of one.
func (e *Engine) Step() { e.runWindowed(e.now+1, nil) }

// Run executes n cycles. Quiescent spans inside the budget are jumped over;
// the engine still stops exactly at the budget's end.
func (e *Engine) Run(n Cycle) { e.runWindowed(e.now+n, nil) }

// RunUntil runs until done() reports true or max cycles have elapsed since
// the call. It returns true if done() became true. done is evaluated at
// window boundaries — between cycles, so all components agree on the state
// it observed, and on the same boundary lattice for every {shards} split, so
// the stopping cycle is split-invariant; jumped cycles are state-preserving
// no-ops, so skipping their evaluations cannot change the answer.
func (e *Engine) RunUntil(done func() bool, max Cycle) bool {
	return e.runWindowed(e.now+max, done)
}

// runWindowed is the one loop that advances the engine. From each boundary T
// it checks done, runs the step hooks that are due, picks the window end E —
// the next point of the absolute W-aligned lattice, clamped by the budget and
// by any hook clock waking inside the window — free-runs every shard through
// [T,E), in parallel when the engine has workers, then performs the boundary
// work with no shard ticking: drain due AtBarrier entries and run the
// cross-shard flushers, merging staged sends. Channel padding makes every
// cross-shard arrival land at or after the next boundary, so free-running
// cannot miss an input: the schedule each component observes is the one a
// boundary after every cycle would give it.
//
// When no shard ticked for a whole window, idleScan bounds the earliest
// future wake and the engine jumps to that wake's lattice point (floor — the
// window containing the wake must be ticked).
func (e *Engine) runWindowed(end Cycle, done func() bool) bool {
	if e.closed && len(e.shards) > 1 {
		panic("sim: Run after Close")
	}
	W := e.window
	for e.now < end {
		T := e.now
		if done != nil && done() {
			return true
		}
		for _, h := range e.hooks {
			if h.clock.wakeAt <= T {
				h.f(T)
			}
		}
		E := T + 1
		if W > 1 {
			E = min(T-T%W+W, end)
			for _, h := range e.hooks {
				if w := h.clock.wakeAt; w > T && w < E {
					E = w
				}
			}
		}
		rest := e.shards[1:]
		for i := range rest {
			rest[i].start <- span{T, E}
		}
		e.freeRun(&e.shards[0], T, E)
		for range rest {
			pollRecv(e.phase, &e.joinBudget)
		}
		e.runDeferred(E)
		anyTicked := false
		for i := range e.shards {
			s := &e.shards[i]
			anyTicked = anyTicked || s.ticked
			s.crossFl.run()
		}
		e.now = E
		if e.stats.Windows++; e.stats.Windows%windowYield == 0 {
			runtime.Gosched()
		}
		idle := E
		if !anyTicked {
			idle = e.idleScan()
		}
		if idle > E {
			j := idle
			if W > 1 && j != Never {
				j -= j % W
			}
			if j = min(j, end); j > E {
				e.stats.IdleJumps++
				e.stats.CyclesJumped += j - E
				e.now = j
				// A retained deferred entry bounds the jump (idleScan), so the
				// jump can land exactly on its boundary: release it before
				// anything observes cycle j, as the drain of cycle j-1 would.
				e.runDeferred(j)
			}
		}
	}
	return done != nil && done()
}

// idleScan computes a lower bound on the earliest future wake across every
// component and hook clock. A component is queued in its shard's
// active set (boundary merges may have just queued it, for any cycle), on a
// timer, or parked, so the bound is the minimum over the queued components
// and the earliest timer: nothing that is merely waiting is looked at. Only
// meaningful when no shard ticked this window: no queued component is
// then due and every latch is flushed, so the cycles before the bound are
// provably no-ops.
func (e *Engine) idleScan() Cycle {
	min := Never
	for i := range e.shards {
		s := &e.shards[i]
		w, ok := s.as.pending(s.acts)
		if !ok {
			return e.now // unclocked ticker: never jump
		}
		if w < min {
			min = w
		}
		if w := s.as.earliest(e.now); w < min {
			min = w
		}
		if len(s.deferred) > 0 && s.deferred[0].due < min {
			min = s.deferred[0].due
		}
	}
	for _, h := range e.hooks {
		if w := h.clock.wakeAt; w < min {
			min = w
		}
	}
	return min
}
