package sim

// Queue is a latched FIFO: items pushed during a cycle's Tick phase become
// visible to readers only after the Flush phase, preserving the engine's
// order-independence guarantee. It is the standard boundary between two
// components that tick in unknown relative order (e.g. a NIC and a router's
// local port).
//
// Storage is a single circular buffer holding the visible region followed
// in ring order by the pending (latched) region, so Push, Pop, and Flush
// are O(1) with no allocation or element shifting in steady state: Push
// writes into the slot after the pending region, and Flush publishes by
// extending the visible region over the pending one in place. Bounded
// queues never allocate after construction; unbounded queues grow the ring
// geometrically and then reuse it.
type Queue[T any] struct {
	buf  []T
	head int // index of the oldest visible item
	vis  int // visible item count
	pend int // pending (pushed this cycle, not yet flushed) item count
	cap  int // total capacity (visible + pending); 0 = unbounded

	fl     *Flusher
	flID   int32
	marked bool
}

// NewQueue returns a Queue with the given total capacity. capacity <= 0
// means unbounded.
func NewQueue[T any](capacity int) *Queue[T] {
	q := &Queue[T]{}
	if capacity > 0 {
		q.cap = capacity
		q.buf = make([]T, capacity)
	}
	return q
}

// CanPush reports whether a Push this cycle would be accepted.
func (q *Queue[T]) CanPush() bool {
	return q.cap <= 0 || q.vis+q.pend < q.cap
}

// Bind routes this queue's flushes through f's dirty list: the queue is
// flushed only on cycles it was pushed to. A bound queue must only be pushed
// by Tickers of f's shard.
func (q *Queue[T]) Bind(f *Flusher) {
	q.fl = f
	q.flID = f.BindID(q)
}

// grow re-linearizes the ring into a larger buffer (unbounded queues only).
func (q *Queue[T]) grow() {
	n := len(q.buf) * 2
	if n < 8 {
		n = 8
	}
	nb := make([]T, n)
	used := q.vis + q.pend
	for i := 0; i < used; i++ {
		nb[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = nb
	q.head = 0
}

// Push enqueues v to become visible next cycle. It reports whether the item
// was accepted (false if the queue is full).
func (q *Queue[T]) Push(v T) bool {
	if !q.CanPush() {
		return false
	}
	if q.vis+q.pend == len(q.buf) {
		q.grow()
	}
	i := q.head + q.vis + q.pend
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = v
	q.pend++
	if q.fl != nil && !q.marked {
		q.marked = true
		q.fl.MarkID(q.flID)
	}
	return true
}

// Len reports the number of currently visible items.
func (q *Queue[T]) Len() int { return q.vis }

// Occupied reports visible plus pending items (the value capacity is
// enforced against).
func (q *Queue[T]) Occupied() int { return q.vis + q.pend }

// Peek returns the oldest visible item without removing it. ok is false if
// none is visible.
func (q *Queue[T]) Peek() (v T, ok bool) {
	if q.vis == 0 {
		return v, false
	}
	return q.buf[q.head], true
}

// Pop removes and returns the oldest visible item. The vacated ring slot is
// zeroed so popped references (e.g. pooled packets) are not retained.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if q.vis == 0 {
		return v, false
	}
	v = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // release reference for GC / packet pooling
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.vis--
	return v, true
}

// Drain pops every visible item into fn, zeroing the vacated slots. Items
// pushed during the same cycle (still pending) are untouched.
func (q *Queue[T]) Drain(fn func(T)) {
	for q.vis > 0 {
		v, _ := q.Pop()
		fn(v)
	}
}

// Flush implements Latch, publishing pending items in place: the visible
// region simply extends over the pending one.
func (q *Queue[T]) Flush() {
	q.marked = false
	q.vis += q.pend
	q.pend = 0
}

// Reg is a double-buffered single value. Writes during Tick become readable
// after Flush.
type Reg[T any] struct {
	cur, next T
	hasNext   bool

	fl   *Flusher
	flID int32
}

// Bind routes this register's flushes through f's dirty list: the register
// is flushed only on cycles it was set. A bound register must only be set by
// Tickers of f's shard.
func (r *Reg[T]) Bind(f *Flusher) {
	r.fl = f
	r.flID = f.BindID(r)
}

// Get returns the current value.
func (r *Reg[T]) Get() T { return r.cur }

// Set schedules v to become current at the next Flush.
func (r *Reg[T]) Set(v T) {
	if r.fl != nil && !r.hasNext {
		r.fl.MarkID(r.flID)
	}
	r.next = v
	r.hasNext = true
}

// Flush implements Latch.
func (r *Reg[T]) Flush() {
	if r.hasNext {
		r.cur = r.next
		r.hasNext = false
	}
}
