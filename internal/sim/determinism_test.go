package sim

import "testing"

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
	id := e.CrossFlusher(0).BindID(l)
	e.Register(TickFunc(func(now Cycle) {
		if now%3 == 0 {
			e.CrossFlusher(0).MarkID(id)
		}
	}))
	e.Run(9)
	if l.flushes != 3 {
		t.Fatalf("marked on 3 of 9 cycles but flushed %d times", l.flushes)
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
