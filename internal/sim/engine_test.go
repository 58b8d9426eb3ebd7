package sim

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

type counter struct{ n int }

func (c *counter) Tick(now Cycle) { c.n++ }

func TestStepAdvancesCycle(t *testing.T) {
	e := New()
	if e.Now() != 0 {
		t.Fatalf("fresh engine at cycle %d", e.Now())
	}
	e.Step()
	e.Step()
	if e.Now() != 2 {
		t.Fatalf("after 2 steps, Now = %d", e.Now())
	}
}

func TestRunTicksEveryComponent(t *testing.T) {
	e := New()
	cs := []*counter{{}, {}, {}}
	for _, c := range cs {
		e.Register(c)
	}
	e.Run(100)
	for i, c := range cs {
		if c.n != 100 {
			t.Errorf("component %d ticked %d times, want 100", i, c.n)
		}
	}
}

func TestTickOrderWithinShard(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Register(TickFunc(func(Cycle) { order = append(order, i) }))
	}
	e.Step()
	for i, v := range order {
		if v != i {
			t.Fatalf("tick order %v", order)
		}
	}
}

// reg is a double-buffered value bound to a Flusher: Set stages it and marks
// it, Flush publishes it.
type reg struct {
	cur, next int
	fl        *Flusher
	id        int32
	marked    bool
}

func newReg(fl *Flusher) *reg {
	r := &reg{fl: fl}
	r.id = fl.BindID(r)
	return r
}

func (r *reg) Set(v int) {
	r.next = v
	if !r.marked {
		r.marked = true
		r.fl.MarkID(r.id)
	}
}

func (r *reg) Flush() { r.cur, r.marked = r.next, false }

func TestFlushRunsAfterTicks(t *testing.T) {
	e := New()
	r := newReg(e.CrossFlusher(0))
	e.Register(TickFunc(func(now Cycle) {
		// During the tick of cycle n, the register must still show the value
		// set in cycle n-1.
		if got, want := Cycle(r.cur), now; got != want {
			t.Errorf("cycle %d: reg shows %d", now, got)
		}
		r.Set(int(now) + 1)
	}))
	e.Run(5)
}

func TestRunUntil(t *testing.T) {
	e := New()
	c := &counter{}
	e.Register(c)
	ok := e.RunUntil(func() bool { return c.n >= 10 }, 100)
	if !ok {
		t.Fatal("RunUntil did not report done")
	}
	if c.n != 10 {
		t.Fatalf("ran %d cycles, want 10", c.n)
	}
	if !e.RunUntil(func() bool { return true }, 0) {
		t.Fatal("RunUntil with already-true predicate and max 0 should succeed")
	}
}

func TestRunUntilTimeout(t *testing.T) {
	e := New()
	if e.RunUntil(func() bool { return false }, 7) {
		t.Fatal("RunUntil reported done for never-true predicate")
	}
	if e.Now() != 7 {
		t.Fatalf("RunUntil timeout ran %d cycles, want 7", e.Now())
	}
}

func TestParallelTicksAll(t *testing.T) {
	e := NewParallel(4)
	var n atomic.Int64
	for i := 0; i < 16; i++ {
		e.RegisterSharded(i, TickFunc(func(Cycle) { n.Add(1) }))
	}
	e.Run(10)
	if n.Load() != 160 {
		t.Fatalf("ticked %d times, want 160", n.Load())
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	// A ring of registers: shard i reads reg[i-1] and writes reg[i]. After N
	// cycles the values are a deterministic function of N regardless of
	// execution interleaving, because all cross-shard traffic is latched: a
	// register read from another shard is a cross-shard edge, flushed by its
	// writer's cross flusher at the boundary.
	build := func(e *Engine) []*reg {
		const k = 8
		regs := make([]*reg, k)
		for i := range regs {
			regs[i] = newReg(e.CrossFlusher(i))
		}
		for i := 0; i < k; i++ {
			e.RegisterSharded(i, TickFunc(func(Cycle) {
				regs[i].Set(regs[(i+k-1)%k].cur + 1)
			}))
		}
		return regs
	}
	es := New()
	ep := NewParallel(4)
	rs := build(es)
	rp := build(ep)
	es.Run(50)
	ep.Run(50)
	for i := range rs {
		if rs[i].cur != rp[i].cur {
			t.Fatalf("reg %d: serial %d parallel %d", i, rs[i].cur, rp[i].cur)
		}
	}
}

func TestNewParallelClampsShards(t *testing.T) {
	e := NewParallel(0)
	if e.Shards() != 1 {
		t.Fatalf("NewParallel(0) has %d shards", e.Shards())
	}
	e.Register(&counter{}) // must not panic
	e.Step()
}

// spinUntil yields the P until cond holds; it waits on the event, never on
// the wall clock, and gives up after a bounded number of yields.
func spinUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 1<<22; i++ {
		if cond() {
			return
		}
		runtime.Gosched()
	}
	t.Fatalf("gave up waiting for %s", what)
}

// goroutinesIn reports, from a dump of every goroutine, how many have frame on
// their stack and how many of those are blocked in a channel receive.
func goroutinesIn(frame string) (n, blocked int) {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if !strings.Contains(g, frame) {
			continue
		}
		n++
		if header, _, _ := strings.Cut(g, "\n"); strings.Contains(header, "[chan receive") {
			blocked++
		}
	}
	return n, blocked
}

// TestPollRecvBudget: a receive satisfied while polling adds one stride to
// the site's budget, up to pollBudget; one that runs out and blocks halves it,
// down to pollYield; a closed channel reports !ok.
func TestPollRecvBudget(t *testing.T) {
	c := make(chan int, 1)
	budget := pollBudget - pollYield
	for i := 0; i < 2; i++ {
		c <- i
		if v, ok := pollRecv(c, &budget); v != i || !ok || budget != pollBudget {
			t.Fatalf("ready receive %d: got %d, %v, budget %d, want budget %d", i, v, ok, budget, pollBudget)
		}
	}
	budget = 2 * pollYield
	for i := 0; i < 2; i++ {
		go func() {
			// Send only once the receiver has given up polling.
			for {
				if _, blocked := goroutinesIn("TestPollRecvBudget"); blocked > 0 {
					break
				}
				runtime.Gosched()
			}
			c <- 7
		}()
		if v, ok := pollRecv(c, &budget); v != 7 || !ok || budget != pollYield {
			t.Fatalf("blocked receive %d: got %d, %v, budget %d, want budget %d", i, v, ok, budget, pollYield)
		}
	}
	close(c)
	if _, ok := pollRecv(c, &budget); ok {
		t.Fatal("closed channel reported ok")
	}
}

// TestCloseEndsWorkers: Close makes every worker return, whether it arrives
// while they still poll for the next window or after they have fallen through
// to the blocking receive; an idle engine reaches that blocking receive on its
// own; Close twice is a no-op and Run after Close panics by name.
func TestCloseEndsWorkers(t *testing.T) {
	for _, idle := range []bool{false, true} {
		base := runtime.NumGoroutine()
		e := NewParallel(4)
		var n atomic.Int64
		for i := 0; i < 16; i++ {
			e.RegisterSharded(i, TickFunc(func(Cycle) { n.Add(1) }))
		}
		e.Run(10)
		if idle {
			spinUntil(t, "idle workers to block in a receive", func() bool {
				workers, blocked := goroutinesIn("sim.(*Engine).worker")
				return workers >= 3 && blocked == workers
			})
		}
		e.Close()
		spinUntil(t, "workers to end", func() bool { return runtime.NumGoroutine() <= base })
		e.Close()
		func() {
			defer func() {
				if r := recover(); r != "sim: Run after Close" {
					t.Errorf("idle=%v: Run after Close: recovered %v", idle, r)
				}
			}()
			e.Run(1)
		}()
		if n.Load() != 160 {
			t.Errorf("idle=%v: ticked %d times, want 160", idle, n.Load())
		}
	}
}

func BenchmarkStepSerial(b *testing.B) {
	e := New()
	for i := 0; i < 256; i++ {
		e.Register(TickFunc(func(Cycle) {}))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkStepParallel(b *testing.B) {
	e := NewParallel(4)
	defer e.Close()
	for i := 0; i < 256; i++ {
		e.RegisterSharded(i, TickFunc(func(Cycle) {}))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
