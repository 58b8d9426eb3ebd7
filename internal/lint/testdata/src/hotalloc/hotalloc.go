// Package hotalloc is the golden-diagnostic fixture for the hotalloc rule:
// every banned allocation construct appears once in the Tick/Flush/Step
// call trees, and the sanctioned escapes (panic arguments, audited allows,
// functions the roots never reach) stay silent.
package hotalloc

// Cycle mirrors sim.Cycle (an int64 alias) so the fixture is self-contained.
type Cycle = int64

// Event is the payload type the literal and boxing findings are seeded on.
type Event struct{ at Cycle }

// Comp is a component whose Tick tree carries one of every banned construct.
type Comp struct {
	events []Event
	buf    []int
	seen   map[int]bool
	sink   *Event
}

func (c *Comp) Tick(now Cycle) {
	c.events = append(c.events, Event{at: now}) // want `append in hot-path function`
	c.sink = &Event{at: now}                    // want `&composite literal in hot-path function`
	cb := func() { c.buf = nil }                // want `func literal in hot-path function`
	cb()
	box(Event{at: now}) // want `interface boxing of .*Event`
	c.grow(int(now))
	c.record(now)
	c.fresh()
	c.reset()
	c.ensure(int(now))
	c.guard(int(now))
}

// box accepts any value; passing a concrete struct boxes it on the heap.
func box(v interface{}) { _ = v }

// grow is reached from Tick, so its make is on the hot path.
func (c *Comp) grow(n int) {
	c.buf = make([]int, n) // want `make in hot-path function`
}

func (c *Comp) record(now Cycle) {
	c.seen = map[int]bool{int(now): true} // want `map literal in hot-path function`
}

func (c *Comp) fresh() {
	c.sink = new(Event) // want `new in hot-path function`
}

func (c *Comp) reset() {
	c.buf = []int{0, 0} // want `slice literal in hot-path function`
}

// ensure grows geometrically: the audited amortization escape hatch.
//
//lint:allow(hotalloc) geometric growth amortizes to zero allocations per op in steady state
func (c *Comp) ensure(n int) {
	if cap(c.buf) < n {
		c.buf = append(c.buf, make([]int, n)...)
	}
}

// guard panics on corruption; a panicking simulator has forfeited the
// zero-allocation contract, so its argument may allocate.
func (c *Comp) guard(n int) {
	if n < 0 {
		panic(&Event{at: Cycle(n)})
	}
}

// Wire is latch-shaped (it has a Flush method), so Flush is a root too.
type Wire struct {
	staged []Event
	cur    []Event
}

func (w *Wire) Flush() {
	w.cur = append(w.cur, w.staged...) // want `append in hot-path function`
	w.staged = w.staged[:0]
}

// Solver mirrors the flow fabric's step: collecting drained flows into a
// fresh slice every pass allocates on the hot path (the real engine reuses
// one scratch slice, truncated in place).
type Solver struct{ drained []int32 }

func (s *Solver) Tick(now Cycle) {
	s.drained = make([]int32, 0, 4) // want `make in hot-path function`
	s.drained = s.drained[:0]
	_ = now
}

// Proc mirrors node.Proc: a Step method taking one *Proc and returning bool
// is a program's step machine, so it is a root too.
type Proc struct{ out []Event }

// Machine issues a packet per step; building it with a literal allocates.
type Machine struct{ sent int }

func (m *Machine) Step(p *Proc) bool {
	p.out = append(p.out, Event{at: Cycle(m.sent)}) // want `append in hot-path function`
	m.sent++
	return true
}

// Stepper's Step has another shape (no *Proc), so it is not a root.
type Stepper struct{ buf []int }

func (s *Stepper) Step(n int) bool {
	s.buf = make([]int, n)
	return true
}

// cold is never reached from a Tick/Flush/Step root: allocating here is fine.
func cold() []int { return make([]int, 8) }
