package sim_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"nifdy/internal/link"
	"nifdy/internal/sim"
)

// lcg is a tiny deterministic generator for workload schedules (the tests
// must not depend on package rng, which sits above sim).
type lcg uint64

func (g *lcg) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g)
}

// pulser fires at pseudorandom cycles: it bumps a value and sends it down a
// one-cycle wire, whose send wakes the watcher for the arrival cycle.
// Between fires it is provably inert and sleeps.
type pulser struct {
	g        lcg
	nextFire sim.Cycle
	val      int
	out      *link.Wire[int]
	act      sim.Activity
}

func (p *pulser) Activity() *sim.Activity { return &p.act }

func (p *pulser) Tick(now sim.Cycle) {
	if now < p.nextFire {
		// Only reachable with skipping off; with skipping on the scheduler
		// elides these cycles entirely.
		return
	}
	p.val++
	p.out.Send(now, p.val)
	p.nextFire = now + 1 + sim.Cycle(p.g.next()%19)
	p.act.Sleep(p.nextFire)
}

// watcher records every value that arrives on its observed input wire and
// then sleeps until the wire's next arrival, as the fabric's components do:
// a Sleep(Never) would erase the wake of a send posted earlier in the same
// cycle. Recording only arrivals keeps the trace identical when skipping is
// off and it ticks every cycle.
type watcher struct {
	in    *link.Wire[int]
	trace []string
	act   sim.Activity
}

func (w *watcher) Activity() *sim.Activity { return &w.act }

func (w *watcher) Tick(now sim.Cycle) {
	for w.in.Ready(now) {
		v, _ := w.in.Recv(now)
		w.trace = append(w.trace, fmt.Sprintf("@%d=%d", now, v))
	}
	w.act.Sleep(w.in.NextAt())
}

// chain is a sparse pseudorandom producer into a one-cycle wire, drained by
// an always-awake consumer.
type chain struct {
	g     lcg
	w     *link.Wire[int]
	n     int
	trace []string
}

func (c *chain) produce(now sim.Cycle) {
	if c.g.next()%4 == 0 {
		c.n++
		c.w.Send(now, c.n)
	}
}

func (c *chain) consume(now sim.Cycle) {
	for c.w.Ready(now) {
		v, _ := c.w.Recv(now)
		c.trace = append(c.trace, fmt.Sprintf("@%d<-%d", now, v))
	}
}

// buildWorkload wires pairs pulser→watcher pairs and four chains into e,
// round-robin over its shards, and returns a function rendering the full
// deterministic state trace. Every wire's writer and consumer share a shard:
// the workload has no cross-shard edge, so it is legal under any window.
func buildWorkload(e *sim.Engine, seed uint64, pairs int) func() string {
	const nChains = 4 // fixed count so every mode builds the same workload
	watchers := make([]*watcher, pairs)
	chains := make([]*chain, nChains)
	for i := range watchers {
		sh := i % e.Shards()
		w := &watcher{in: link.NewWire[int](1)}
		w.in.Observe(&w.act)
		e.RegisterSharded(sh, w)
		e.RegisterSharded(sh, &pulser{g: lcg(seed + uint64(i)*977), out: w.in})
		watchers[i] = w
	}
	for j := range chains {
		sh := j % e.Shards()
		c := &chain{g: lcg(seed ^ uint64(j+1)<<17), w: link.NewWire[int](1)}
		e.RegisterSharded(sh, sim.TickFunc(c.produce))
		e.RegisterSharded(sh, sim.TickFunc(c.consume))
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
// several seeds, a randomized ticker/wire workload must produce identical
// component state traces at one shard and at several, at window 1 and 4, and
// with quiescence skipping on and off. Multi-shard modes use 1
// pair-per-shard distributions, so the cross-mode comparison pins the
// wake/sleep protocol, the worker barrier and wire delivery at once.
func TestEngineModesBitIdentical(t *testing.T) {
	type mode struct {
		shards int
		window sim.Cycle
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
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			var ref string
			for i, m := range modes {
				name := fmt.Sprintf("shards=%d/window=%d/skip=%v", m.shards, m.window, m.skip)
				e := sim.NewParallel(m.shards)
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
	run := func(shards int, w sim.Cycle) string {
		e := sim.NewParallel(shards)
		defer e.Close()
		e.SetWindow(w)
		render := buildWorkload(e, seed, pairs)
		e.Run(cycles)
		return render()
	}
	for _, w := range []sim.Cycle{1, 4} {
		ref := run(1, w)
		if !strings.Contains(ref, "=") {
			t.Fatalf("window=%d: workload produced no events", w)
		}
		if got := run(4, w); got != ref {
			t.Errorf("window=%d: 4 shards on 1 P diverge from one shard:\nreference:\n%s\ngot:\n%s", w, ref, got)
		}
	}
}
