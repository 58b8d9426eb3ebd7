// Package ring provides the simulator's one FIFO: a growable circular deque
// behind every same-cycle queue — the routers' input virtual channels, the
// wires' events in flight, the interfaces' ejection queues, the NIC FIFOs,
// the processor inboxes and the flow tier's class queues.
//
// These queues were once plain slices popped with q = q[1:]: the window
// slides through the backing array, so every ~cap operations the append
// reallocates even though the queue length is tiny and stable. The ring
// reuses its buffer forever once it has grown to the workload's high-water
// mark — the property the zero-allocation saturated data path needs. Popped
// slots are zeroed so recycled packets are not retained.
//
// The deque is not latched: pushes are visible to pops immediately, so it
// holds a component's own state. A value bound for another component travels
// on a link.Wire.
package ring

// Deque is a growable circular FIFO that can also be pushed and popped at
// the other end. The zero value is ready to use. Its capacity is always a
// power of two, so an item's slot is its position masked by capacity-1; it
// doubles, from 2, only when full (or is sized up front by Reserve), so a
// queue whose occupancy is bounded never grows past that bound rounded up.
// Its 32-byte header matters: the flow fabric holds two per node.
type Deque[T any] struct {
	buf  []T
	head uint32 // slot of the front item
	n    uint32 // queued item count
}

// Len reports the queued item count.
func (d *Deque[T]) Len() int { return int(d.n) }

// Cap reports the number of slots: the items the deque holds before it next
// grows.
func (d *Deque[T]) Cap() int { return len(d.buf) }

// mask turns a position into a slot index.
func (d *Deque[T]) mask() uint32 { return uint32(len(d.buf) - 1) }

// Reserve grows the deque, if needed, to hold n items without growing again:
// a queue whose occupancy is bounded (a credit-limited buffer) is sized once,
// at build time.
func (d *Deque[T]) Reserve(n int) {
	if n <= len(d.buf) {
		return
	}
	c := max(2, len(d.buf))
	for c < n {
		c *= 2
	}
	d.resize(c)
}

// resize moves the items, front first, into a new buffer of c slots, a power
// of two no smaller than the count. A full deque doubles, 2 slots at first:
// the flow fabric holds a deque per (node, class), and a first growth to 8
// slots cost its 102,400-node mesh 4.6 MB of peak RSS.
//
//lint:allow(hotalloc) geometric growth amortizes to zero allocations per op in steady state; queues reach their high-water mark during warm-up
func (d *Deque[T]) resize(c int) {
	nb := make([]T, c)
	k := copy(nb, d.buf[d.head:])
	copy(nb[k:], d.buf[:d.head])
	d.buf = nb
	d.head = 0
}

// PushBack appends v. It is written out (no mask or grow helper) to stay
// within the compiler's inlining budget: every flit and wire event is pushed
// here.
func (d *Deque[T]) PushBack(v T) {
	if int(d.n) == len(d.buf) {
		d.resize(max(2, 2*len(d.buf)))
	}
	d.buf[(d.head+d.n)&uint32(len(d.buf)-1)] = v
	d.n++
}

// PushFront prepends v: it becomes the next PopFront result.
func (d *Deque[T]) PushFront(v T) {
	if int(d.n) == len(d.buf) {
		d.resize(max(2, 2*len(d.buf)))
	}
	d.head = (d.head - 1) & d.mask()
	d.buf[d.head] = v
	d.n++
}

// Front returns the oldest item without removing it.
func (d *Deque[T]) Front() (v T, ok bool) {
	if d.n == 0 {
		return v, false
	}
	return d.buf[d.head], true
}

// Back returns the newest item without removing it.
func (d *Deque[T]) Back() (v T, ok bool) {
	if d.n == 0 {
		return v, false
	}
	return d.buf[(d.head+d.n-1)&d.mask()], true
}

// At returns the i-th queued item (0 is the front). It panics when i is out
// of range, mirroring slice indexing.
func (d *Deque[T]) At(i int) T {
	if uint(i) >= uint(d.n) {
		panic("ring: index out of range")
	}
	return d.buf[(d.head+uint32(i))&d.mask()]
}

// ForEach calls f on every queued item, front to back, without removing any.
// The deque must not be mutated during the walk.
func (d *Deque[T]) ForEach(f func(T)) {
	for i := range d.n {
		f(d.buf[(d.head+i)&d.mask()])
	}
}

// PopFront removes and returns the oldest item, zeroing its slot.
func (d *Deque[T]) PopFront() (v T, ok bool) {
	if d.n == 0 {
		return v, false
	}
	var zero T
	v, d.buf[d.head] = d.buf[d.head], zero // release the reference for GC / packet pooling
	d.head = (d.head + 1) & d.mask()
	d.n--
	return v, true
}

// PopBack removes and returns the newest item, zeroing its slot.
func (d *Deque[T]) PopBack() (v T, ok bool) {
	if d.n == 0 {
		return v, false
	}
	d.n--
	i := (d.head + d.n) & d.mask()
	var zero T
	v, d.buf[i] = d.buf[i], zero
	return v, true
}
