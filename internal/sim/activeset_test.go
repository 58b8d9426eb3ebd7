package sim

import (
	"fmt"
	"slices"
	"testing"
)

// parker is a Ticker that parks (Sleep(Never)) after every tick and records
// the cycles it ran. It leaves the active set entirely after each tick, so
// every observed tick after the first proves a wake edge re-enqueued it.
type parker struct {
	ticks []Cycle
	act   Activity
}

func (p *parker) Activity() *Activity { return &p.act }
func (p *parker) Tick(now Cycle) {
	p.ticks = append(p.ticks, now)
	p.act.Sleep(Never)
}

// wakeLatch wakes a parked component from a boundary flush when marked.
type wakeLatch struct {
	act *Activity
	at  Cycle
}

func (l *wakeLatch) Flush() { l.act.WakeAt(l.at) }

// markOnce binds l to f and marks it for f's next run.
func markOnce(f *Flusher, l Latch) { f.MarkID(f.BindID(l)) }

// TestActiveSetEdgeCases drives the active-set scheduler through the wake
// paths that do not occur on every cycle: boundary-flush wakes, duplicate wakes
// within one cycle, cross-shard staged wakes landing on a fully sleeping
// shard, and fast-forward interacting with a pending hook clock. Each case
// asserts the exact tick cycles, which the visit-time wake semantics fix
// bit-identically.
func TestActiveSetEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"WakeDuringFlushPhase", testWakeDuringFlushPhase},
		{"DoubleEnqueueOneCycle", testDoubleEnqueueOneCycle},
		{"CrossShardWakeSleepingShard", testCrossShardWakeSleepingShard},
		{"FastForwardPendingHookClock", testFastForwardPendingHookClock},
		{"FastForwardLandsOnEarliestTimer", testFastForwardLandsOnEarliestTimer},
		{"WindowJumpStaleTimer", testWindowJumpStaleTimer},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

// A wake posted by the boundary flush (a latch waking a component that parked
// in the cycle before the boundary) must set its queue bit and tick the
// component on the very next cycle.
func testWakeDuringFlushPhase(t *testing.T) {
	e := New()
	p := &parker{}
	e.Register(p)
	// The latch is marked by a driver ticker on cycle 3, so its Flush — and
	// the wake — runs at the W = 1 boundary after cycle 3, after p parked.
	e.Register(TickFunc(func(now Cycle) {
		if now == 3 {
			markOnce(e.CrossFlusher(0), &wakeLatch{act: &p.act, at: now + 1})
		}
	}))
	e.Run(8)
	// p ticks at 0 (initially active, then parks) and again at 4 (boundary
	// wake at the end of cycle 3).
	want := []Cycle{0, 4}
	if len(p.ticks) != len(want) || p.ticks[0] != want[0] || p.ticks[1] != want[1] {
		t.Fatalf("parker ticked at %v, want %v", p.ticks, want)
	}
}

// Two producers waking the same parked component in one cycle must enqueue
// it once: the second finds the bit already set, and the component ticks
// exactly once at the wake cycle.
func testDoubleEnqueueOneCycle(t *testing.T) {
	e := New()
	// Registration order: both producers tick before p each cycle, so their
	// same-cycle wakes reach p in the same cycle (visit-time semantics).
	var target *parker
	for i := 0; i < 2; i++ {
		e.Register(TickFunc(func(now Cycle) {
			if now == 5 {
				target.act.WakeAt(now)
			}
		}))
	}
	target = &parker{}
	e.Register(target)
	e.Run(10)
	want := []Cycle{0, 5}
	if len(target.ticks) != len(want) || target.ticks[0] != want[0] || target.ticks[1] != want[1] {
		t.Fatalf("target ticked at %v, want %v", target.ticks, want)
	}
}

// A staged cross-shard wake must re-activate a shard whose every component
// has left the active set: the consumer shard spends cycles with no queued
// component (zero instructions), then the cross-flusher's boundary wake
// re-enqueues the parked component.
func testCrossShardWakeSleepingShard(t *testing.T) {
	e := NewParallel(2)
	defer e.Close()
	p := &parker{}
	e.RegisterSharded(1, p)
	e.RegisterSharded(0, TickFunc(func(now Cycle) {
		if now == 6 {
			// Stage the wake through the writer's cross-flusher, exactly as a
			// cross-shard wire send would: it runs at the boundary, when
			// shard 1 is quiescent.
			markOnce(e.CrossFlusher(0), &wakeLatch{act: &p.act, at: now + 1})
		}
	}))
	e.Run(10)
	want := []Cycle{0, 7}
	if len(p.ticks) != len(want) || p.ticks[0] != want[0] || p.ticks[1] != want[1] {
		t.Fatalf("parker ticked at %v, want %v", p.ticks, want)
	}
}

// With every ticker parked, the engine jumps over provably idle cycles — but
// never past a step hook's pending wake: the hook runs at exactly its
// scheduled cycle even though no ticker forced a window there, and at no
// other (the windows at cycles 0 and 1 find its clock not due).
func testFastForwardPendingHookClock(t *testing.T) {
	e := New()
	p := &parker{}
	e.Register(p)
	var hookRuns []Cycle
	var clock Activity
	clock.Sleep(25)
	e.RegisterStepHookClocked(func(now Cycle) {
		hookRuns = append(hookRuns, now)
		clock.Sleep(Never)
	}, &clock)
	e.Run(40)
	if want := []Cycle{25}; !slices.Equal(hookRuns, want) {
		t.Fatalf("clocked hook ran at %v, want %v", hookRuns, want)
	}
	if got := e.Now(); got != 40 {
		t.Fatalf("engine stopped at %d, want 40", got)
	}
	if len(p.ticks) != 1 || p.ticks[0] != 0 {
		t.Fatalf("parker ticked at %v, want [0] (fast-forward skips its idle cycles)", p.ticks)
	}
}

// napper is a Ticker that records the cycles it ran and then sleeps until the
// cycle its plan names (Never parks it). It skips itself while asleep, as the
// scheduler would, so the reference schedule (SetIdleSkip(false): every
// component every cycle) records the same cycles.
type napper struct {
	ticks []Cycle
	act   Activity
	plan  func(now Cycle) Cycle
}

func (n *napper) Activity() *Activity { return &n.act }
func (n *napper) Tick(now Cycle) {
	if n.act.Asleep(now) {
		return
	}
	n.ticks = append(n.ticks, now)
	n.act.Sleep(n.plan(now))
}

// until returns a plan from a list of (cycle, sleep-until) pairs: ticked at
// the cycle, the napper sleeps until the cycle paired with it, and parks when
// ticked at any other.
func until(pairs ...Cycle) func(Cycle) Cycle {
	return func(now Cycle) Cycle {
		for i := 0; i < len(pairs); i += 2 {
			if pairs[i] == now {
				return pairs[i+1]
			}
		}
		return Never
	}
}

// TestTimedSleepers drives components asleep until a finite cycle — out of
// the queue, on the timer wheel — through everything that can happen to a
// timer: it comes due, goes stale, is reused, is moved, meets a wake from a
// boundary flush, and meets wakes posted mid-sweep from either side of
// the cursor.
// Every case runs under each engine mode and asserts the exact tick cycles,
// which must also be those of the reference schedule that ticks everything
// every cycle.
func TestTimedSleepers(t *testing.T) {
	type wake struct {
		at     Cycle // the cycle the waker acts in
		target int   // index into nappers
		to     Cycle // WakeAt argument
		flush  bool  // post from the cross flusher after cycle at (a window4 boundary), not its tick phase
	}
	cases := []struct {
		name string
		// plans are the nappers', in registration order; the waker registers
		// after wakerAfter of them (so it ticks behind those, ahead of the rest).
		plans      []func(Cycle) Cycle
		wakerAfter int
		wakes      []wake
		want       [][]Cycle
	}{
		{
			name:  "expires on its cycle, laps of the wheel included",
			plans: []func(Cycle) Cycle{until(0, 7, 7, 1030, 1030, 4000), until(0, 2, 2, 3, 3, 4)},
			want:  [][]Cycle{{0, 7, 1030, 4000}, {0, 2, 3, 4}},
		},
		{
			name:  "woken early then parked: stale entry dropped",
			plans: []func(Cycle) Cycle{until(0, 100)},
			wakes: []wake{{at: 30, target: 0, to: 30}},
			want:  [][]Cycle{{0, 30}},
		},
		{
			name:  "woken early, asleep again to the same cycle: entry reused, one Tick",
			plans: []func(Cycle) Cycle{until(0, 100, 30, 100)},
			wakes: []wake{{at: 30, target: 0, to: 30}},
			want:  [][]Cycle{{0, 30, 100}},
		},
		{
			name:  "re-sleep to a later cycle: old entry re-filed at expiry, no Tick",
			plans: []func(Cycle) Cycle{until(0, 50, 20, 80)},
			wakes: []wake{{at: 20, target: 0, to: 20}},
			want:  [][]Cycle{{0, 20, 80}},
		},
		{
			name:  "re-sleep to an earlier cycle: entry moved",
			plans: []func(Cycle) Cycle{until(0, 500, 20, 40)},
			wakes: []wake{{at: 20, target: 0, to: 20}},
			want:  [][]Cycle{{0, 20, 40}},
		},
		{
			name:  "woken for a future cycle: waits on a timer, not in the list",
			plans: []func(Cycle) Cycle{until(0, 500, 90, 95), until(0, Never, 60, Never)},
			wakes: []wake{{at: 20, target: 0, to: 90}, {at: 20, target: 1, to: 60}},
			want:  [][]Cycle{{0, 90, 95}, {0, 60}},
		},
		{
			name:       "found not due and filed, then woken in the same sweep",
			plans:      []func(Cycle) Cycle{until(0, Never)},
			wakerAfter: 1,
			wakes:      []wake{{at: 19, target: 0, to: 30, flush: true}, {at: 20, target: 0, to: 20}},
			want:       [][]Cycle{{0, 21}},
		},
		{
			name:  "timer expiry and mailbox wake in one cycle",
			plans: []func(Cycle) Cycle{until(0, 52)},
			wakes: []wake{{at: 51, target: 0, to: 0, flush: true}},
			want:  [][]Cycle{{0, 52}},
		},
		{
			name:       "woken mid-sweep ahead of and behind the cursor, before expiry",
			plans:      []func(Cycle) Cycle{until(0, 50, 31, 50), until(0, 50, 30, 50)},
			wakerAfter: 1,
			wakes:      []wake{{at: 30, target: 0, to: 30}, {at: 30, target: 1, to: 30}},
			want:       [][]Cycle{{0, 31, 50}, {0, 30, 50}},
		},
		{
			name:       "woken mid-sweep in the cycle of expiry",
			plans:      []func(Cycle) Cycle{until(0, 50), until(0, 50)},
			wakerAfter: 1,
			wakes:      []wake{{at: 50, target: 0, to: 50}, {at: 50, target: 1, to: 50}},
			// The napper behind the cursor has ticked and parked by the time
			// the wake lands, so it runs again next cycle; the one ahead is
			// already due and runs once.
			want: [][]Cycle{{0, 50, 51}, {0, 50}},
		},
	}
	for _, tc := range cases {
		for _, m := range engineModes {
			t.Run(tc.name+"/"+m.name, func(t *testing.T) {
				e := m.mk()
				defer e.Close()
				nappers := make([]*napper, len(tc.plans))
				waker := TickFunc(func(now Cycle) {
					for _, w := range tc.wakes {
						if w.at != now {
							continue
						}
						if w.flush {
							markOnce(e.CrossFlusher(0), &wakeLatch{act: &nappers[w.target].act, at: w.to})
						} else {
							nappers[w.target].act.WakeAt(w.to)
						}
					}
				})
				for i, plan := range tc.plans {
					if i == tc.wakerAfter {
						e.Register(waker)
					}
					nappers[i] = &napper{plan: plan}
					e.Register(nappers[i])
				}
				if tc.wakerAfter >= len(tc.plans) {
					e.Register(waker)
				}
				e.Run(5000)
				for i, n := range nappers {
					if !slices.Equal(n.ticks, tc.want[i]) {
						t.Errorf("napper %d ticked at %v, want %v", i, n.ticks, tc.want[i])
					}
				}
			})
		}
	}
}

// TestTimedSleeperCrossShardWake wakes a component asleep on a timer in shard
// 1 from shard 0, through the cross-shard flusher as a wire arrival would: the
// wake lands at the next window boundary. At every (shards, W) the sleeper
// runs at the wake's cycle and its old timer, reused by the sleep that
// follows, fires once — whether the engine is driven by one Run or cycle by
// cycle with Step, which must do the same boundary work.
func TestTimedSleeperCrossShardWake(t *testing.T) {
	drivers := []struct {
		name string
		run  func(e *Engine, n Cycle)
	}{
		{"run", (*Engine).Run},
		{"step", func(e *Engine, n Cycle) {
			for i := Cycle(0); i < n; i++ {
				e.Step()
			}
		}},
	}
	for _, window := range []Cycle{1, 4} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			for _, shards := range []int{1, 2} {
				for _, d := range drivers {
					t.Run(fmt.Sprintf("shards=%d/%s", shards, d.name), func(t *testing.T) {
						e := NewParallel(shards)
						defer e.Close()
						e.SetWindow(window)
						n := &napper{plan: until(0, 500, 100, 500)}
						e.RegisterSharded(1, n)
						e.RegisterSharded(0, TickFunc(func(now Cycle) {
							if now == 95 {
								markOnce(e.CrossFlusher(0), &wakeLatch{act: &n.act, at: 100})
							}
						}))
						d.run(e, 1000)
						if want := []Cycle{0, 100, 500}; !slices.Equal(n.ticks, want) {
							t.Fatalf("napper ticked at %v, want %v", n.ticks, want)
						}
						if e.Now() != 1000 {
							t.Fatalf("engine stopped at %d, want 1000", e.Now())
						}
					})
				}
			}
		})
	}
}

// The idle jump's bound is the earliest pending timer: with nothing else to
// do, the engine executes each cycle a timer is due in, the one after it
// (which finds nothing ticked), and no other — however many laps of the wheel
// away the timer is. Cycles 0, 1, 300, 301, 700, 701, 5000 and 5001 are
// windows; everything between them is four jumps.
func testFastForwardLandsOnEarliestTimer(t *testing.T) {
	e := New()
	a := &napper{plan: until(0, 300, 300, 5000)}
	b := &napper{plan: until(0, 700)}
	e.Register(a)
	e.Register(b)
	e.Run(6000)
	st := e.Stats()
	if got, want := [3]int64{st.Windows, st.IdleJumps, st.CyclesJumped}, [3]int64{8, 4, 6000 - 8}; got != want {
		t.Fatalf("windows, idle jumps, cycles jumped = %v, want %v", got, want)
	}
	if !slices.Equal(a.ticks, []Cycle{0, 300, 5000}) || !slices.Equal(b.ticks, []Cycle{0, 700}) {
		t.Fatalf("nappers ticked at %v and %v", a.ticks, b.ticks)
	}
	if e.Now() != 6000 {
		t.Fatalf("engine stopped at %d, want 6000", e.Now())
	}
}

// A windowed engine's idle jump is bounded by the smallest filed key, stale
// or not: a sleeper woken early and parked leaves its entry behind, the jump
// stops at that entry's window, drops it without a Tick, and the next jump
// goes on to the live timer behind it.
func testWindowJumpStaleTimer(t *testing.T) {
	e := New()
	e.SetWindow(4)
	stale := &napper{plan: until(0, 200)}
	live := &napper{plan: until(0, 1001)}
	e.Register(&napper{plan: func(now Cycle) Cycle {
		if now == 40 {
			stale.act.WakeAt(now)
		}
		return until(0, 40)(now)
	}})
	e.Register(stale)
	e.Register(live)
	var boundaries []Cycle
	e.RunUntil(func() bool { boundaries = append(boundaries, e.Now()); return false }, 2000)
	if want := []Cycle{0, 40}; !slices.Equal(stale.ticks, want) {
		t.Fatalf("stale napper ticked at %v, want %v", stale.ticks, want)
	}
	if want := []Cycle{0, 1001}; !slices.Equal(live.ticks, want) {
		t.Fatalf("live napper ticked at %v, want %v", live.ticks, want)
	}
	// Each window that ticked is followed by one that did not, which jumps: to
	// the waker's timer, to the stale entry, to the live timer's window, out.
	if want := []Cycle{0, 4, 40, 44, 200, 1000, 1004, 2000}; !slices.Equal(boundaries, want) {
		t.Fatalf("window boundaries %v, want %v", boundaries, want)
	}
}

// benchmarkIdleFraction steps an engine holding total components of which
// only active ever do work: the active ones are plain Tickers (no Activity,
// always scheduled), the rest park with Sleep(Never) on their first tick and
// leave the active set entirely. Under active-set scheduling the steady-state
// Step cost is O(active), independent of total — the property
// scripts/benchlocality.sh gates by comparing two total sizes at fixed
// active count.
func benchmarkIdleFraction(b *testing.B, total, active int) {
	e := New()
	defer e.Close()
	for i := 0; i < total; i++ {
		if i%(total/active) == 0 {
			e.Register(TickFunc(func(Cycle) {}))
		} else {
			e.Register(&parker{})
		}
	}
	e.Step() // parkers park and drop out of the queue
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkIdleFraction(b *testing.B) {
	// Fixed active region of 64 components inside total populations 64x
	// apart: sub-linear scheduling means ns/op must stay nearly flat.
	b.Run("total=1024", func(b *testing.B) { benchmarkIdleFraction(b, 1024, 64) })
	b.Run("total=65536", func(b *testing.B) { benchmarkIdleFraction(b, 65536, 64) })
}

// benchmarkTimedSleepers steps an engine of n components of which one in a
// hundred is always awake and the rest sleep 200 to 1200 cycles at a time,
// out of phase with one another — or, with timed false, park for good: the
// same population waiting on an edge instead of a clock. A sleeper costs the
// sweep nothing until its timer comes due, so the time per Tick (ns/tick:
// awake components and expiring sleepers alike) must not depend on how many
// sleepers there are, and must stay within a small factor (the cost of filing
// and expiring a timer against that of an empty Tick) of what it is with
// none; a sweep that visited sleepers would pay some 87 visits per Tick here.
func benchmarkTimedSleepers(b *testing.B, n int, timed bool) {
	e := New()
	defer e.Close()
	awake := 0
	var sleepers []*sleeper
	for i := 0; i < n; i++ {
		switch {
		case i%100 == 0:
			e.Register(&benchIdle{})
			awake++
		case timed:
			s := &sleeper{stride: Cycle(200 + (i*7919)%1001)}
			sleepers = append(sleepers, s)
			e.Register(s)
		default:
			e.Register(&parker{})
		}
	}
	e.Run(5000) // spread the sleepers' phases, grow the sweep's buffers
	count := func() (ticks int) {
		for _, s := range sleepers {
			ticks += s.ticks
		}
		return ticks
	}
	before := count()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.StopTimer()
	ticks := count() - before + awake*b.N
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ticks), "ns/tick")
}

func BenchmarkTimedSleepers(b *testing.B) {
	b.Run("n=1024", func(b *testing.B) { benchmarkTimedSleepers(b, 1<<10, true) })
	b.Run("n=65536", func(b *testing.B) { benchmarkTimedSleepers(b, 1<<16, true) })
	b.Run("n=65536/parked", func(b *testing.B) { benchmarkTimedSleepers(b, 1<<16, false) })
}
