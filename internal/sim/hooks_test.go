package sim

import (
	"sync/atomic"
	"testing"
)

type latchFunc func()

func (f latchFunc) Flush() { f() }

// TestStepHookAndAtBarrierOrdering pins the schedule around a window boundary
// on a two-shard engine: the step hook (on an always-awake clock, so it runs
// every cycle) runs before any shard ticks, AtBarrier closures run after
// every shard has finished the window and before the cross-shard flushers,
// and both observe the cycle they were staged in.
func TestStepHookAndAtBarrierOrdering(t *testing.T) {
	e := NewParallel(2)
	defer e.Close()
	var ticks, deferredRuns atomic.Int32
	var cycle atomic.Int64
	hookCalls := 0
	var clock Activity
	e.RegisterStepHookClocked(func(now Cycle) {
		hookCalls++
		cycle.Store(now)
		if got := ticks.Load(); got != int32(2*now) {
			t.Errorf("step hook at cycle %d saw %d ticks; want %d (hooks must run pre-tick)", now, got, 2*now)
		}
	}, &clock)
	// A latch on the worker shard's cross flusher, marked every cycle: by the
	// time the boundary drain flushes it, this cycle's deferred closures must
	// all have run.
	crossID := e.CrossFlusher(1).BindID(latchFunc(func() {
		now := cycle.Load()
		if got := deferredRuns.Load(); got != int32(2*(now+1)) {
			t.Errorf("cross flush at cycle %d saw %d deferred runs; want %d (the flush must follow the drain)", now, got, 2*(now+1))
		}
	}))
	for sh := 0; sh < 2; sh++ {
		sh := sh
		e.RegisterSharded(sh, TickFunc(func(now Cycle) {
			if got := deferredRuns.Load(); got != int32(2*now) {
				t.Errorf("tick at cycle %d saw %d deferred runs; want %d", now, got, 2*now)
			}
			ticks.Add(1)
			if sh == 1 {
				e.CrossFlusher(1).MarkID(crossID)
			}
			e.AtBarrier(sh, now, func(at Cycle) {
				if at != now {
					t.Errorf("deferred staged at cycle %d ran with now=%d", now, at)
				}
				if got := ticks.Load(); got != int32(2*(now+1)) {
					t.Errorf("deferred at cycle %d ran with %d ticks; want %d (must run after the tick barrier)", now, got, 2*(now+1))
				}
				deferredRuns.Add(1)
			})
		}))
	}
	e.Run(5)
	if hookCalls != 5 {
		t.Errorf("step hook ran %d times; want 5", hookCalls)
	}
	if got := deferredRuns.Load(); got != 10 {
		t.Errorf("deferred ran %d times; want 10", got)
	}
}

type bindRecorder struct {
	eng   *Engine
	shard int
	bound int
}

func (b *bindRecorder) Tick(Cycle) {}
func (b *bindRecorder) BindEngine(e *Engine, sh int) {
	b.eng, b.shard = e, sh
	b.bound++
}

// TestRegisterShardedBindsComponents verifies the Binder hook fires with
// the registering engine and resolved shard.
func TestRegisterShardedBindsComponents(t *testing.T) {
	e := NewParallel(3)
	defer e.Close()
	var a, b bindRecorder
	e.Register(&a) // delegates to shard 0
	e.RegisterSharded(2, &b)
	if a.bound != 1 || a.eng != e || a.shard != 0 {
		t.Errorf("Register: bound=%d eng=%p shard=%d", a.bound, a.eng, a.shard)
	}
	if b.bound != 1 || b.eng != e || b.shard != 2 {
		t.Errorf("RegisterSharded: bound=%d eng=%p shard=%d", b.bound, b.eng, b.shard)
	}
}
