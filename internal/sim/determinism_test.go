package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// lcg is a tiny deterministic generator for workload schedules (the tests
// must not depend on package rng, which sits above sim).
type lcg uint64

func (g *lcg) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g)
}

// pulser fires at pseudorandom cycles: it bumps a value, publishes it
// through a latched Reg, and wakes its consumer for the cycle the write
// becomes visible. Between fires it is provably inert and sleeps.
type pulser struct {
	g        lcg
	nextFire Cycle
	val      int
	reg      *Reg[int]
	consumer *Activity
	act      Activity
}

func (p *pulser) Activity() *Activity { return &p.act }

func (p *pulser) Tick(now Cycle) {
	if now < p.nextFire {
		// Only reachable with skipping off; with skipping on the scheduler
		// elides these cycles entirely.
		return
	}
	p.val++
	p.reg.Set(p.val)
	p.consumer.WakeAt(now + 1)
	p.nextFire = now + 1 + Cycle(p.g.next()%19)
	p.act.Sleep(p.nextFire)
}

// watcher records every change of its input Reg. It sleeps forever and
// relies purely on the producer's wake edge; recording only changes keeps
// the trace identical when skipping is off and it ticks every cycle.
type watcher struct {
	reg   *Reg[int]
	last  int
	trace []string
	act   Activity
}

func (w *watcher) Activity() *Activity { return &w.act }

func (w *watcher) Tick(now Cycle) {
	if v := w.reg.Get(); v != w.last {
		w.last = v
		w.trace = append(w.trace, fmt.Sprintf("@%d=%d", now, v))
	}
	w.act.Sleep(Never)
}

// pushPop is a queue chain: a sparse pseudorandom producer into a
// dirty-flushed Queue, drained by an always-awake consumer.
type pushPop struct {
	g     lcg
	q     *Queue[int]
	n     int
	trace []string
}

func (c *pushPop) produce(now Cycle) {
	if c.g.next()%4 == 0 {
		c.n++
		c.q.Push(c.n)
	}
}

func (c *pushPop) consume(now Cycle) {
	for {
		v, ok := c.q.Pop()
		if !ok {
			break
		}
		c.trace = append(c.trace, fmt.Sprintf("@%d<-%d", now, v))
	}
}

// buildWorkload wires pairs pulser→watcher pairs and one queue chain per
// shard into e and returns a function rendering the full deterministic state
// trace. Every latch is written and read inside one shard (bound to that
// shard's Flusher): the workload has no cross-shard edge, so it is legal
// under any window.
func buildWorkload(e *Engine, seed uint64, pairs int) func() string {
	const nChains = 4 // fixed count so every mode builds the same workload
	watchers := make([]*watcher, pairs)
	chains := make([]*pushPop, nChains)
	for i := 0; i < pairs; i++ {
		sh := i % e.Shards()
		reg := &Reg[int]{}
		reg.Bind(e.Flusher(sh))
		w := &watcher{reg: reg}
		p := &pulser{g: lcg(seed + uint64(i)*977), reg: reg, consumer: &w.act}
		// The consumer ticks before the producer so the producer's WakeAt
		// lands after the consumer's Sleep: WakeAt only lowers a wake time,
		// so a wake aimed at an awake component that then sleeps would be
		// lost. (The component layer orders this with wire NextAt bounds
		// recomputed at sleep time instead.)
		e.RegisterSharded(sh, w)
		e.RegisterSharded(sh, p)
		watchers[i] = w
	}
	for j := 0; j < nChains; j++ {
		sh := j % e.Shards()
		q := NewQueue[int](0)
		q.Bind(e.Flusher(sh))
		c := &pushPop{g: lcg(seed ^ uint64(j+1)<<17), q: q}
		e.RegisterSharded(sh, TickFunc(c.produce))
		e.RegisterSharded(sh, TickFunc(c.consume))
		chains[j] = c
	}
	return func() string {
		var b strings.Builder
		for i, w := range watchers {
			fmt.Fprintf(&b, "pair%d: %s\n", i, strings.Join(w.trace, " "))
		}
		for j, c := range chains {
			// Each trace is single-writer within one shard, so rendering in
			// chain order is deterministic under any interleaving.
			fmt.Fprintf(&b, "chain%d: %s\n", j, strings.Join(c.trace, " "))
		}
		return b.String()
	}
}

// TestEngineModesBitIdentical is the package-level determinism table: for
// several seeds, a randomized Ticker/Latch workload must produce identical
// component state traces at one shard and at several, at window 1 and 4, and
// with quiescence skipping on and off. Multi-shard modes use 1
// pair-per-shard distributions, so the cross-mode comparison pins the
// wake/sleep protocol, the worker barrier and the per-cycle flush at once.
func TestEngineModesBitIdentical(t *testing.T) {
	type mode struct {
		shards int
		window Cycle
		skip   bool
	}
	modes := []mode{
		{1, 1, false}, // the reference schedule
		{1, 1, true}, {1, 4, true},
		{2, 1, true}, {2, 4, true},
		{8, 1, true}, {8, 4, true},
		{8, 1, false}, {8, 4, false},
	}
	for _, seed := range []uint64{1, 1995, 0xdecafbad} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			var ref string
			for i, m := range modes {
				name := fmt.Sprintf("shards=%d/window=%d/skip=%v", m.shards, m.window, m.skip)
				e := NewParallel(m.shards)
				e.SetWindow(m.window)
				e.SetIdleSkip(m.skip)
				render := buildWorkload(e, seed, 16)
				e.Run(2000)
				e.Close()
				got := render()
				if !strings.Contains(got, "=") {
					t.Fatalf("%s: workload produced no events", name)
				}
				if i == 0 {
					ref = got
					continue
				}
				if got != ref {
					t.Errorf("%s diverges from the one-shard reference schedule:\nreference:\n%s\ngot:\n%s",
						name, ref, got)
				}
			}
		})
	}
}

// TestShardsExceedProcs runs four shards on one P: every receive of the
// window barrier then polls while the goroutine it waits for is not running,
// and the Gosched in pollRecv is what hands it the P. (Without it the receive
// runs out of budget, blocks, and the budget shrinks, so this test would still
// pass; BenchmarkStepParallel is where the cost shows, about twice the time
// per step.) The traces must be the one-shard trace.
func TestShardsExceedProcs(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	const seed, pairs, cycles = 1995, 16, 2000
	run := func(shards int, w Cycle) string {
		e := NewParallel(shards)
		defer e.Close()
		e.SetWindow(w)
		render := buildWorkload(e, seed, pairs)
		e.Run(cycles)
		return render()
	}
	for _, w := range []Cycle{1, 4} {
		ref := run(1, w)
		if !strings.Contains(ref, "=") {
			t.Fatalf("window=%d: workload produced no events", w)
		}
		if got := run(4, w); got != ref {
			t.Errorf("window=%d: 4 shards on 1 P diverge from one shard:\nreference:\n%s\ngot:\n%s", w, ref, got)
		}
	}
}

func TestActivityWakeOnlyLowers(t *testing.T) {
	var a Activity
	if a.Asleep(0) {
		t.Fatal("zero Activity must be awake")
	}
	a.Sleep(100)
	if !a.Asleep(99) || a.Asleep(100) {
		t.Fatal("Sleep(100) must skip cycles before 100 only")
	}
	a.WakeAt(150) // raising via WakeAt must be a no-op
	if !a.Asleep(99) {
		t.Fatal("WakeAt raised the wake time")
	}
	a.WakeAt(40)
	if a.Asleep(40) || !a.Asleep(39) {
		t.Fatal("WakeAt(40) did not lower the wake time")
	}
	a.Wake()
	if a.Asleep(0) {
		t.Fatal("Wake did not make the component immediately runnable")
	}
}

// sleeper ticks, then sleeps a fixed stride.
type sleeper struct {
	stride Cycle
	ticks  int
	act    Activity
}

func (s *sleeper) Activity() *Activity { return &s.act }
func (s *sleeper) Tick(now Cycle)      { s.ticks++; s.act.Sleep(now + s.stride) }

func TestIdleSkippingElidesTicks(t *testing.T) {
	e := New()
	s := &sleeper{stride: 10}
	e.Register(s)
	e.Run(100)
	if s.ticks != 10 {
		t.Fatalf("sleeper ticked %d times over 100 cycles with stride 10, want 10", s.ticks)
	}
	e2 := New()
	e2.SetIdleSkip(false)
	s2 := &sleeper{stride: 10}
	e2.Register(s2)
	e2.Run(100)
	if s2.ticks != 100 {
		t.Fatalf("with skipping off, sleeper ticked %d times, want 100", s2.ticks)
	}
}

type countLatch struct{ flushes int }

func (c *countLatch) Flush() { c.flushes++ }

func TestFlusherFlushesDirtyOnly(t *testing.T) {
	e := New()
	l := &countLatch{}
	id := e.Flusher(0).BindID(l)
	e.Register(TickFunc(func(now Cycle) {
		if now%3 == 0 {
			e.Flusher(0).MarkID(id)
		}
	}))
	e.Run(9)
	if l.flushes != 3 {
		t.Fatalf("marked on 3 of 9 cycles but flushed %d times", l.flushes)
	}
}

func TestBoundQueueFlushesOnPush(t *testing.T) {
	e := New()
	q := NewQueue[int](0)
	q.Bind(e.Flusher(0))
	var got []int
	e.Register(TickFunc(func(now Cycle) {
		if now == 2 {
			q.Push(7)
			q.Push(8) // second push same cycle: must mark only once
		}
		if v, ok := q.Pop(); ok {
			got = append(got, int(now), v)
		}
	}))
	e.Run(6)
	want := fmt.Sprint([]int{3, 7, 4, 8})
	if fmt.Sprint(got) != want {
		t.Fatalf("bound queue delivered %v, want %v", got, want)
	}
}

func TestCloseIdempotent(t *testing.T) {
	e := NewParallel(4)
	e.Register(&counter{})
	e.Run(10)
	e.Close()
	e.Close() // second Close must be a no-op
	New().Close()
}

type benchIdle struct {
	asleep bool
	act    Activity
}

func (b *benchIdle) Activity() *Activity { return &b.act }
func (b *benchIdle) Tick(now Cycle) {
	if b.asleep {
		b.act.Sleep(Never)
	}
}

func benchmarkEngineStep(b *testing.B, mk func() *Engine, components int, asleep bool) {
	e := mk()
	defer e.Close()
	for i := 0; i < components; i++ {
		e.RegisterSharded(i%e.Shards(), &benchIdle{asleep: asleep})
	}
	e.Step() // let sleepers park
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkEngineStep(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchmarkEngineStep(b, New, 256, false) })
	b.Run("parallel4", func(b *testing.B) {
		benchmarkEngineStep(b, func() *Engine { return NewParallel(4) }, 256, false)
	})
	b.Run("idle-heavy", func(b *testing.B) { benchmarkEngineStep(b, New, 256, true) })
	b.Run("saturated", func(b *testing.B) { benchmarkEngineStep(b, New, 256, false) })
}
