// Package sim provides the cycle-synchronous simulation engine underneath
// every experiment in this repository.
//
// The paper's simulator executes every cycle "explicitly and synchronously by
// all objects; at any time in the simulation, all objects have executed up to
// the same point" (§3). We reproduce that contract with a two-phase engine:
//
//  1. Tick phase: every registered Ticker observes the current (latched)
//     state of its inputs and writes only to state it owns, plus to the
//     "next" side of Latches it is the unique writer of.
//  2. Flush phase: every Latch moves its "next" side to its "current" side.
//
// Because Tickers never observe another component's same-cycle writes, the
// result is independent of tick order, which in turn makes the optional
// sharded parallel execution (experiment X3 in DESIGN.md) bit-identical to
// serial execution.
//
// # Hot path
//
// Three mechanisms keep the per-cycle cost proportional to activity rather
// than to the number of registered components:
//
//   - Persistent workers. A parallel engine starts one long-lived goroutine
//     per extra shard in NewParallel; Step releases them through a channel
//     barrier (tick phase, barrier, flush phase, barrier) instead of
//     spawning goroutines every cycle. Engine.Close parks them permanently.
//
//   - Quiescence skipping. A Ticker that also implements IdleTicker exposes
//     an Activity — a wake-time latch. A component whose Tick ends asleep
//     leaves its shard's worklist (activeset.go): parked, if it sleeps until
//     a wake edge (Sleep(Never)), or filed on the shard's timer wheel under
//     the cycle it sleeps to. Either way it costs zero instructions per
//     cycle until Activity.WakeAt re-enqueues it or its timer comes due; the
//     sweep visits components that Tick and nothing else, and when nothing
//     ticks the engine jumps to the earliest timer. The protocol invariant
//     is that a component may only sleep while its Tick is a provable no-op,
//     and must be woken no later than the cycle any of its inputs can
//     change; link.Wire drives those wake edges automatically for observed
//     wires. Under that invariant skipping is bit-identical to ticking
//     every cycle, which the golden determinism tests in internal/harness
//     enforce on full experiment workloads.
//
//   - Dirty latch flushing. Latches registered with RegisterLatch are walked
//     every cycle (sharded across the workers); latches bound to a shard's
//     Flusher are walked only on cycles in which they were actually written,
//     and the production wires/queues mark themselves by dense int32 ID
//     (BindID/MarkID) so the hot marking path appends an integer, not an
//     interface value.
//
// Shard discipline: components in different shards must not share mutable
// non-latched state. A component and every writer into its input wires must
// live in the same shard, with one exception: a link.Wire marked CrossShard
// is a legal cross-shard edge — its sends are staged on the writer's side
// and merged into the consumer-visible event list at the flush barrier, and
// the consumer's Activity is woken only at merge time (wake times are
// atomic CAS-min, so cross-shard wakes commute). Cross-shard effects that
// are not wire sends (e.g. barrier releases waking processors in other
// shards) must be deferred to the tick/flush boundary with AtBarrier, where
// no shard is ticking. The harness partitions fabrics with topo.Network's
// partition hook so that each node's router, NIC, and processor share a
// shard and wires are the only cross-shard edges; under that discipline
// multi-shard execution is bit-identical to serial.
package sim

import (
	"math"
	"sync/atomic"
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

// Latch is double-buffered state flushed between cycles. Flush is called
// after all Tickers have run for the cycle.
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
	wakeAt atomic.Int64

	// Active-set linkage, installed by RegisterSharded: set/idx identify the
	// owning shard's worklist slot and queued is the membership dedup flag.
	// The invariant is queued == "idx is in the worklist (active, mailbox,
	// late, or hold)", and queued=false implies the component is parked at
	// Never or holds a timer filed no later than wakeAt — it re-enters the
	// worklist when that timer comes due, or sooner through the first WakeAt
	// that lowers its wake time. Unregistered activities (hook clocks,
	// standalone tests) have a nil set and skip the enqueue entirely.
	set    *activeSet
	idx    int32
	queued atomic.Bool
}

// WakeAt lowers the wake time to at most at: the component will run at cycle
// at (or earlier). Never raises the wake time.
func (a *Activity) WakeAt(at Cycle) {
	for {
		cur := a.wakeAt.Load()
		if cur <= at {
			return
		}
		if a.wakeAt.CompareAndSwap(cur, at) {
			break
		}
	}
	// The wake time was lowered; make sure the component is in its shard's
	// worklist. The plain Load keeps the common already-queued case to one
	// atomic read; the CAS arbitrates racing producers so exactly one
	// enqueues. (A producer that finds cur <= at and returns early loses
	// nothing: the component is queued, or holds a timer no later than cur,
	// or another producer lowered the time to cur and is on its way here.)
	if a.set != nil && !a.queued.Load() && a.queued.CompareAndSwap(false, true) {
		a.set.enqueue(a.idx)
	}
}

// Wake makes the component runnable immediately.
func (a *Activity) Wake() { a.WakeAt(0) }

// Sleep sets the wake time to until unconditionally. Only the owning
// component may call it, and only when its Tick is a no-op for every cycle
// before until (all inputs quiet; any already-scheduled input event must be
// reflected in until).
func (a *Activity) Sleep(until Cycle) { a.wakeAt.Store(until) }

// Asleep reports whether the component would be skipped at cycle now.
func (a *Activity) Asleep(now Cycle) bool { return a.wakeAt.Load() > now }

// IdleTicker is a Ticker that participates in quiescence skipping. The
// engine consults the returned Activity (which must be stable across calls)
// before each Tick.
type IdleTicker interface {
	Ticker
	Activity() *Activity
}

// Flusher is a per-shard dirty list: latches that mark themselves during the
// Tick phase (Queue/Reg bound via their Bind methods, cross-shard wires via
// link.Wire.CrossShard) are flushed exactly once in the following Flush
// phase, and untouched latches are never walked. A latch bound to a Flusher
// must not also be passed to RegisterLatch.
//
// Latches that register with BindID are marked by dense ID (MarkID): the
// dirty list is then a flat int32 array and the flush phase a linear walk of
// arena-resident IDs, with no interface append (and no GC write barrier) on
// the hot marking path. The object-based Mark remains for latches without a
// registration site.
type Flusher struct {
	dirty []Latch
	table []Latch // BindID-registered latches, indexed by dense ID
	ids   []int32 // IDs marked dirty this cycle
}

// BindID registers l for ID-based marking and returns its dense ID. The ID
// is only meaningful to this Flusher; callers store it and pass it back to
// MarkID. Registration happens at build time, before the first Step.
func (f *Flusher) BindID(l Latch) int32 {
	f.table = append(f.table, l)
	return int32(len(f.table) - 1)
}

// MarkID schedules the latch registered under id for the next flush phase.
// Callers must mark at most once per cycle per latch.
//lint:allow(hotalloc) dirty-ID growth is bounded by the number of bound latches; run() truncates in place so capacity is reused
func (f *Flusher) MarkID(id int32) { f.ids = append(f.ids, id) }

// Mark schedules l for the next flush phase. Callers must mark at most once
// per cycle per latch (Queue and Reg guarantee this with a dirty bit). The
// production wires and queues all mark by dense ID (BindID/MarkID); Mark
// remains for ad-hoc latches that skip Bind.
func (f *Flusher) Mark(l Latch) { f.dirty = append(f.dirty, l) }

// run flushes and clears the dirty lists: ID-marked latches first (in mark
// order), then object-marked ones. Latches are independent (double-buffered),
// so the relative order of the two lists is unobservable.
func (f *Flusher) run() {
	for _, id := range f.ids {
		f.table[id].Flush()
	}
	f.ids = f.ids[:0]
	for i, l := range f.dirty {
		l.Flush()
		f.dirty[i] = nil
	}
	f.dirty = f.dirty[:0]
}

// deferredCall is one AtBarrier entry: f runs at the window boundary `due`
// (with now = due-1, the last cycle before the boundary). In per-tick mode
// due is always the staging cycle plus one, reproducing the classic
// run-at-this-cycle's-barrier behavior.
type deferredCall struct {
	due Cycle
	f   func(now Cycle)
}

// shard is one scheduling unit: a tick list with its scheduler state, a
// static flush list, and a dirty-latch flusher, plus the parked worker's
// channels.
type shard struct {
	tickers  []Ticker
	acts     []*Activity // parallel to tickers; nil entries always run
	as       activeSet   // worklist and timer wheel (quiescence-skipping schedules)
	latches  []Latch
	flusher  Flusher
	deferred []deferredCall // staged by this shard's Ticks, drained at window boundaries

	// crossFl is the shard's cross-shard wire flusher in windowed mode: the
	// stepping goroutine drains it at window boundaries (sequentially, in
	// shard order), instead of the per-cycle flush phase. Per-tick engines
	// alias cross wires onto the ordinary flusher.
	crossFl Flusher

	// Fast-forward bookkeeping, written by the shard's own tick phase and
	// read by the stepping goroutine after the flush barrier: whether any
	// Tick ran this cycle.
	ticked bool

	start chan Cycle    // releases the worker into a tick phase
	gate  chan struct{} // releases the worker into the flush phase
}

// Binder is implemented by components that need to know which engine and
// shard they were registered into (e.g. to stage cross-shard work with
// AtBarrier). RegisterSharded calls BindEngine before the first Step.
type Binder interface {
	BindEngine(e *Engine, sh int)
}

// WindowSync is the engine's hook into a cross-process synchronizer
// (internal/dist): in windowed mode the stepping goroutine calls AtBoundary
// once per window boundary, after draining the deferred list and the
// cross-shard wire flushers, with the boundary cycle `next` (the first cycle
// of the following window), whether this process's done predicate holds,
// whether any owned shard ticked during the window, and a lower bound on the
// earliest local wake time (idleScan's; valid only when nothing ticked, Never
// if fully quiescent).
//
// AtBoundary exchanges frames with every peer and returns whether the done
// predicate holds in all processes (evaluated at the same boundary
// everywhere) and the earliest global wake — `next` itself when any process
// ticked (no jump), Never when the whole simulation is quiescent with no
// scheduled work.
type WindowSync interface {
	AtBoundary(next Cycle, localDone, ticked bool, idle Cycle) (done bool, globalIdle Cycle)
}

// Engine drives a set of Tickers and Latches through simulated cycles.
type Engine struct {
	now    Cycle
	shards []shard
	lo, hi int // owned shard range [lo,hi); unowned shards never tick

	parallel   bool
	skip       bool
	latchRR    int
	phase      chan struct{} // workers report phase completion here
	closed     bool
	stepHooks  []func(now Cycle)
	hookClocks []*Activity // parallel to stepHooks; a nil entry disables fast-forward
	ffEnd      Cycle       // exclusive fast-forward bound, set by Run/RunUntil

	// Conservative time-window synchronization (windowed mode): window W > 1
	// lets shards free-run W cycles between barriers, legal when every
	// cross-shard wire's arrival offset is at least W (router.NewChannelSync
	// pads channels to guarantee it). winEnd is the current window's
	// exclusive end, published to workers before their release. sync, when
	// set, is the cross-process synchronizer; crossHook (a topo.CrossHook,
	// held as any to avoid an import cycle) lets a transport claim boundary-
	// crossing channels during topology registration.
	window    Cycle
	winEnd    Cycle
	sync      WindowSync
	crossHook any
}

// New returns an Engine with a single shard, executing serially, with
// quiescence skipping enabled.
func New() *Engine {
	return newEngine(1)
}

// NewParallel returns an Engine with n shards whose Tick and Flush phases
// run concurrently on persistent workers (one long-lived goroutine per shard
// beyond the first; shard 0 runs on the stepping goroutine). Components
// registered in different shards must not share mutable non-latched state.
// Call Close when done with the engine to park the workers.
func NewParallel(n int) *Engine {
	if n < 1 {
		n = 1
	}
	return NewParallelOwned(n, 0, n)
}

// NewParallelOwned returns an Engine with total shards of which it executes
// only the contiguous range [lo,hi) — the worker-process form of NewParallel
// used by the distributed runner: every process builds the same total-shard
// simulation but ticks only its owned slice, with registrations outside the
// range dropped and cross-boundary wires carried by a WindowSync transport.
// NewParallelOwned(n, 0, n) is NewParallel(n).
func NewParallelOwned(total, lo, hi int) *Engine {
	if total < 1 {
		total = 1
	}
	if lo < 0 || hi > total || lo >= hi {
		panic("sim: NewParallelOwned range out of bounds")
	}
	e := newEngine(total)
	e.lo, e.hi = lo, hi
	if hi-lo > 1 {
		e.parallel = true
		e.phase = make(chan struct{}, hi-lo-1)
		for i := lo + 1; i < hi; i++ {
			s := &e.shards[i]
			s.start = make(chan Cycle, 1)
			s.gate = make(chan struct{}, 1)
			go e.worker(s)
		}
	}
	return e
}

func newEngine(n int) *Engine {
	e := &Engine{shards: make([]shard, n), hi: n, skip: true, window: 1}
	for i := range e.shards {
		e.shards[i].as.init()
	}
	return e
}

// Shards reports the number of shards.
func (e *Engine) Shards() int { return len(e.shards) }

// Owns reports whether the engine executes shard sh (see NewParallelOwned).
func (e *Engine) Owns(sh int) bool {
	sh %= len(e.shards)
	return sh >= e.lo && sh < e.hi
}

// Owned reports the engine's owned shard range [lo,hi).
func (e *Engine) Owned() (lo, hi int) { return e.lo, e.hi }

// SetWindow sets the conservative synchronization window W (default 1).
// With W > 1, Run and RunUntil execute in windows: shards free-run from one
// boundary of the absolute W-aligned lattice to the next with no barrier in
// between, cross-shard wires drain once per window, AtBarrier work releases
// at lattice points, and step hooks (all of which must be clocked) run at
// window starts when due. This is only legal when every cross-shard wire
// arrival lands at or after the next boundary — the fabric must be built
// with the same window (router.NewChannelSync), making W a model parameter:
// a fixed W is bit-identical across all {shards x processes} splits, and
// W = 1 is today's per-tick model. Call before registering components.
func (e *Engine) SetWindow(w Cycle) {
	if w < 1 {
		w = 1
	}
	e.window = w
}

// Window reports the synchronization window.
func (e *Engine) Window() Cycle { return e.window }

// SetWindowSync installs the cross-process synchronizer, switching Run and
// RunUntil into windowed mode (even at W = 1, where every cycle is a
// boundary). Call before registering components.
func (e *Engine) SetWindowSync(s WindowSync) { e.sync = s }

// SetCrossHook installs a transport hook consulted by topo.MarkCross for
// every boundary-crossing channel (stored as any: the hook's concrete type,
// topo.CrossHook, lives above this package). CrossHook returns it.
func (e *Engine) SetCrossHook(h any) { e.crossHook = h }

// CrossHook returns the hook installed by SetCrossHook, or nil.
func (e *Engine) CrossHook() any { return e.crossHook }

// windowed reports whether Run/RunUntil use the window loop.
func (e *Engine) windowed() bool { return e.window > 1 || e.sync != nil }

// SetIdleSkip enables or disables quiescence skipping (enabled by default).
// Disabling it ticks every component every cycle — the reference schedule
// the golden determinism tests compare against.
func (e *Engine) SetIdleSkip(on bool) { e.skip = on }

// Register adds t to shard 0 (always valid).
func (e *Engine) Register(t Ticker) { e.RegisterSharded(0, t) }

// RegisterSharded adds t to the given shard. Within a shard, Tickers run in
// registration order. If t implements IdleTicker its Activity governs
// skipping. Registration is only legal between Steps.
func (e *Engine) RegisterSharded(sh int, t Ticker) {
	sh %= len(e.shards)
	if sh < e.lo || sh >= e.hi {
		// Unowned shard: another process ticks it. Dropping the registration
		// (and the Binder call) keeps the component inert here — its state is
		// never read, so the build stays cheap and identical in shape.
		return
	}
	s := &e.shards[sh]
	idx := int32(len(s.tickers))
	s.tickers = append(s.tickers, t)
	var a *Activity
	if it, ok := t.(IdleTicker); ok {
		a = it.Activity()
	}
	s.acts = append(s.acts, a)
	s.as.register(idx, a)
	if b, ok := t.(Binder); ok {
		b.BindEngine(e, sh)
	}
}

// RegisterStepHook adds f to the list of functions run at the top of every
// Step, on the stepping goroutine, before any shard ticks. Hooks observe the
// fully-flushed state of the previous cycle and must not mutate component
// state; they exist for whole-simulation sampling (e.g. stats.Pending).
func (e *Engine) RegisterStepHook(f func(now Cycle)) {
	e.stepHooks = append(e.stepHooks, f)
	e.hookClocks = append(e.hookClocks, nil)
}

// RegisterStepHookClocked is RegisterStepHook for hooks that participate in
// cycle fast-forwarding: a is the hook's clock, holding the next cycle at
// which the hook needs to run (the hook maintains it like a Ticker's
// Activity — Sleep forward from inside the hook, WakeAt from producers).
// When every ticker in every shard is asleep and every registered hook has a
// clock, the engine jumps Now directly to the earliest wake instead of
// stepping provably no-op cycles one by one; a hook registered through plain
// RegisterStepHook pins the engine to cycle-by-cycle stepping.
func (e *Engine) RegisterStepHookClocked(f func(now Cycle), a *Activity) {
	e.stepHooks = append(e.stepHooks, f)
	e.hookClocks = append(e.hookClocks, a)
}

// AtBarrier stages f to run at the next window boundary, on the stepping
// goroutine, after every shard's tick phase has completed and before the
// following window begins. At that point no component is running, so f may
// safely touch state across shards (the canonical use is releasing a
// processor barrier whose waiters live in multiple shards). sh must be the
// shard of the Ticker staging the call and now the staging cycle — each
// shard's deferred list is single-writer during the tick phase. Deferred
// functions run in shard order, then in staging order within a shard, making
// the drain deterministic.
//
// f's release cycle is quantized to the absolute window lattice: it runs
// with now = due-1 where due = now - now%W + W, regardless of incidental
// boundaries (Run chunk ends, hook-clock clamps). In per-tick mode (W = 1)
// due is now+1, i.e. f runs at this cycle's tick/flush boundary, as before.
// The quantization is what keeps barrier releases bit-identical across
// every {shards x processes} split and any Run chunking.
func (e *Engine) AtBarrier(sh int, now Cycle, f func(now Cycle)) {
	s := &e.shards[sh%len(e.shards)]
	s.deferred = append(s.deferred, deferredCall{due: now - now%e.window + e.window, f: f})
}

// runDeferred drains every owned shard's deferred entries that are due at or
// before the given boundary; later entries (staged under a clamped, earlier-
// than-lattice boundary) are retained. Each entry runs with now = due-1.
func (e *Engine) runDeferred(boundary Cycle) {
	for i := e.lo; i < e.hi; i++ {
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

// RegisterLatch adds l to the every-cycle flush list. Flush work is sharded
// round-robin across the workers; latch flush order is unspecified (latches
// must be independent, which double-buffering guarantees).
func (e *Engine) RegisterLatch(l Latch) {
	e.RegisterLatchSharded(e.latchRR, l)
	e.latchRR++
}

// RegisterLatchSharded adds l to the given shard's flush list. The latch
// must only be written by Tickers of the same shard.
func (e *Engine) RegisterLatchSharded(sh int, l Latch) {
	s := &e.shards[sh%len(e.shards)]
	s.latches = append(s.latches, l)
}

// Flusher returns the given shard's dirty-latch flusher, for binding latches
// that should be flushed only on cycles they are written (Queue.Bind,
// Reg.Bind).
func (e *Engine) Flusher(sh int) *Flusher {
	return &e.shards[sh%len(e.shards)].flusher
}

// CrossFlusher returns the flusher cross-shard wires must bind to
// (link.Wire.CrossShard) for the given writer shard. In per-tick mode it is
// the ordinary shard flusher — staged sends merge in the writer's flush
// phase, as always. In windowed mode it is a separate per-shard list the
// stepping goroutine drains once per window boundary, sequentially in shard
// order: cross-window merges then happen with no shard ticking and in a
// deterministic order, which is also where a WindowSync transport serializes
// remote-bound events. Call after SetWindow/SetWindowSync.
func (e *Engine) CrossFlusher(sh int) *Flusher {
	s := &e.shards[sh%len(e.shards)]
	if e.windowed() {
		return &s.crossFl
	}
	return &s.flusher
}

// Now returns the current cycle (the cycle about to be, or being, executed).
func (e *Engine) Now() Cycle { return e.now }

// worker is the persistent loop of one extra shard. Per-tick mode: tick,
// report, wait for the global tick barrier, flush, report. Windowed mode
// (winEnd published past now before the release): free-run the whole window
// with per-cycle local flushes, then a single report — the window's only
// barrier.
func (e *Engine) worker(s *shard) {
	for now := range s.start {
		if end := e.winEnd; end > now {
			e.tickWindowShard(s, now, end)
			e.phase <- struct{}{}
			continue
		}
		e.tickShard(s, now)
		e.phase <- struct{}{}
		<-s.gate
		e.flushShard(s)
		e.phase <- struct{}{}
	}
}

// tickWindowShard runs one shard through cycles [now,end) with its local
// flushes in between — no cross-shard interaction: cross wires stage until
// the boundary drain, and channel padding guarantees nothing staged by a
// peer shard can arrive before end. s.ticked aggregates over the window.
func (e *Engine) tickWindowShard(s *shard, now, end Cycle) {
	ticked := false
	for t := now; t < end; t++ {
		e.tickShard(s, t)
		ticked = ticked || s.ticked
		e.flushShard(s)
	}
	s.ticked = ticked
}

func (e *Engine) tickShard(s *shard, now Cycle) {
	if e.skip {
		s.ticked = s.as.sweep(s.tickers, s.acts, now)
		return
	}
	s.ticked = len(s.tickers) > 0
	for _, t := range s.tickers {
		t.Tick(now)
	}
}

func (e *Engine) flushShard(s *shard) {
	s.flusher.run()
	for _, l := range s.latches {
		l.Flush()
	}
}

// Step executes one full cycle: step hooks, then all Ticks, then any
// barrier-deferred work, then all Flushes. The deferred drain and the flush
// phase start only after every shard's tick phase has completed.
func (e *Engine) Step() {
	now := e.now
	for _, f := range e.stepHooks {
		f(now)
	}
	if e.parallel {
		rest := e.shards[e.lo+1 : e.hi]
		for i := range rest {
			rest[i].start <- now
		}
		e.tickShard(&e.shards[e.lo], now)
		for range rest {
			<-e.phase
		}
		e.runDeferred(now + 1)
		for i := range rest {
			rest[i].gate <- struct{}{}
		}
		e.flushShard(&e.shards[e.lo])
		for range rest {
			<-e.phase
		}
	} else {
		s := &e.shards[e.lo]
		e.tickShard(s, now)
		e.runDeferred(now + 1)
		e.flushShard(s)
	}
	e.now++
	if e.skip && e.ffEnd > e.now {
		e.fastForward()
	}
}

// fastForward jumps Now past provably no-op cycles: if no Tick ran this
// cycle, every worklist is empty and every component is parked or on a timer
// (wires wake their observer at the event's arrival cycle, so in-flight
// traffic keeps its receiver's wake time honest), flushes are empty, and the
// only thing the skipped cycles could do is run step hooks — which the hook
// clocks bound. Jumping to the earliest pending timer therefore produces the
// bit-identical state the skipped steps would have. Bounded by ffEnd so
// Run(n) still stops on its cycle.
func (e *Engine) fastForward() {
	for i := e.lo; i < e.hi; i++ {
		if e.shards[i].ticked {
			return
		}
	}
	min := e.ffEnd
	for i := e.lo; i < e.hi; i++ {
		if w := e.shards[i].as.earliest(e.now); w < min {
			min = w
		}
	}
	for _, a := range e.hookClocks {
		if a == nil {
			return
		}
		if w := Cycle(a.wakeAt.Load()); w < min {
			min = w
		}
	}
	if min > e.now {
		e.now = min
	}
}

// Close parks the engine's persistent workers. The engine must not be
// stepped afterwards. Safe to call repeatedly, and a no-op for serial
// engines.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	if !e.parallel {
		return
	}
	for i := e.lo + 1; i < e.hi; i++ {
		close(e.shards[i].start)
	}
}

// Run executes n cycles. Quiescent spans inside the budget may be
// fast-forwarded (see fastForward); the engine still stops exactly at the
// budget's end. Windowed engines (SetWindow > 1 or SetWindowSync) execute
// the budget in window units instead of single Steps.
func (e *Engine) Run(n Cycle) {
	end := e.now + n
	if e.windowed() {
		e.runWindowed(end, nil)
		return
	}
	e.ffEnd = end
	for e.now < end {
		e.Step()
	}
	e.ffEnd = 0
}

// RunUntil steps until done() reports true or max cycles have elapsed since
// the call. It returns true if done() became true. done is evaluated between
// cycles, so all components agree on the state it observed; fast-forwarded
// cycles are state-preserving no-ops, so skipping their done() evaluations
// cannot change the answer. On windowed engines done is evaluated at window
// boundaries — the same boundary lattice for every {shards x processes}
// split, so the stopping cycle is split-invariant; under a WindowSync it is
// evaluated in every process and the run stops when all agree.
func (e *Engine) RunUntil(done func() bool, max Cycle) bool {
	end := e.now + max
	if e.windowed() {
		return e.runWindowed(end, done)
	}
	e.ffEnd = end
	for e.now < end {
		if done() {
			e.ffEnd = 0
			return true
		}
		e.Step()
	}
	e.ffEnd = 0
	return done()
}

// runWindowed is the window-mode main loop behind Run and RunUntil: from
// each boundary T it runs due step hooks, picks the window end E — the next
// point of the absolute W-aligned lattice, clamped by the budget and by any
// hook clock waking inside the window — free-runs every owned shard through
// [T,E) with only per-cycle local flushes, then performs the boundary work
// with no shard ticking: drain due AtBarrier entries, drain the cross-shard
// wire flushers (merging staged sends; a WindowSync transport serializes
// remote-bound ones here), and exchange frames with peer processes. Channel
// padding makes every cross-shard arrival land at or after the next
// boundary, so free-running cannot miss an input: the schedule each
// component observes is bit-identical to per-tick execution.
//
// When no owned shard ticked for a whole window, idleScan bounds the earliest
// future wake from the worklists, the timers and the hook clocks; the engine
// then jumps to that wake's lattice point (floor — the window containing the wake
// must be ticked). Under a WindowSync the jump uses the global minimum, and
// the per-frame ticked bit makes "nothing ticked anywhere" detectable by all
// processes at the same boundary: a shard that ticked nowhere staged no
// events anywhere, so jumping is as safe as single-process fast-forward.
func (e *Engine) runWindowed(end Cycle, done func() bool) bool {
	for _, a := range e.hookClocks {
		if a == nil {
			panic("sim: unclocked step hook on a windowed engine (use RegisterStepHookClocked)")
		}
	}
	W := e.window
	for e.now < end {
		T := e.now
		// An idle jump can land exactly on a retained deferred entry's due
		// boundary (idleScan bounds jumps by deferred dues); release it before
		// anything observes cycle T, matching the per-tick order where the
		// barrier drain of cycle due-1 precedes done checks and hooks at due.
		e.runDeferred(T)
		if done != nil && e.sync == nil && done() {
			return true
		}
		for i, f := range e.stepHooks {
			if e.hookClocks[i].wakeAt.Load() <= T {
				f(T)
			}
		}
		E := T - T%W + W
		if E > end {
			E = end
		}
		for _, a := range e.hookClocks {
			if w := a.wakeAt.Load(); w > T && w < E {
				E = w
			}
		}
		e.tickWindow(T, E)
		e.runDeferred(E)
		anyTicked := false
		for i := e.lo; i < e.hi; i++ {
			s := &e.shards[i]
			anyTicked = anyTicked || s.ticked
			s.crossFl.run()
		}
		e.now = E
		idle := E
		if !anyTicked {
			idle = e.idleScan()
		}
		if e.sync != nil {
			ldone := done != nil && done()
			gdone, gidle := e.sync.AtBoundary(E, ldone, anyTicked, idle)
			if gdone {
				return true
			}
			idle = gidle
		}
		if idle > e.now {
			j := idle
			if j != Never {
				j -= j % W
			}
			if j > end {
				j = end
			}
			if j > e.now {
				e.now = j
			}
		}
	}
	return done != nil && done()
}

// tickWindow runs every owned shard through [T,E), in parallel when the
// engine has workers. The single phase join afterwards is the only barrier
// of the window.
func (e *Engine) tickWindow(T, E Cycle) {
	if e.parallel {
		e.winEnd = E
		rest := e.shards[e.lo+1 : e.hi]
		for i := range rest {
			rest[i].start <- T
		}
		e.tickWindowShard(&e.shards[e.lo], T, E)
		for range rest {
			<-e.phase
		}
		return
	}
	e.tickWindowShard(&e.shards[e.lo], T, E)
}

// idleScan computes a lower bound on the earliest future wake across every
// owned component and hook clock — the windowed analog of fastForward's
// bound. A component is in its shard's worklist or mailbox (boundary merges
// may have just put it there, for any cycle), on a timer, or parked, so the
// bound is the minimum over the first two and the earliest timer: nothing
// that is merely waiting is looked at. Only meaningful when no owned shard
// ticked this window.
func (e *Engine) idleScan() Cycle {
	min := Never
	for i := e.lo; i < e.hi; i++ {
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
	for _, a := range e.hookClocks {
		if w := a.wakeAt.Load(); w < min {
			min = w
		}
	}
	return min
}
