// Package ring provides a growable circular FIFO for the simulator's
// same-cycle queues (NIC outgoing/arrival FIFOs, processor inboxes).
//
// These queues were previously plain slices popped with q = q[1:]: the
// window slides through the backing array, so every ~cap operations the
// append reallocates even though the queue length is tiny and stable. The
// ring reuses its buffer forever once it has grown to the workload's
// high-water mark — the property the zero-allocation saturated data path
// needs. Popped slots are zeroed so recycled packets are not retained.
//
// The deque is not latched: pushes are visible to pops immediately, so it
// holds a component's own state. A value bound for another component travels
// on a link.Wire.
package ring

// Deque is a growable circular FIFO. The zero value is ready to use.
type Deque[T any] struct {
	buf  []T
	head int
	n    int
}

// Len reports the queued item count.
func (d *Deque[T]) Len() int { return d.n }

// grow re-linearizes into a buffer of at least double the capacity.
//
//lint:allow(hotalloc) geometric growth amortizes to zero allocations per op in steady state; queues reach their high-water mark during warm-up
func (d *Deque[T]) grow() {
	c := len(d.buf) * 2
	if c < 8 {
		c = 8
	}
	nb := make([]T, c)
	for i := 0; i < d.n; i++ {
		nb[i] = d.buf[(d.head+i)%len(d.buf)]
	}
	d.buf = nb
	d.head = 0
}

// PushBack appends v.
func (d *Deque[T]) PushBack(v T) {
	if d.n == len(d.buf) {
		d.grow()
	}
	i := d.head + d.n
	if i >= len(d.buf) {
		i -= len(d.buf)
	}
	d.buf[i] = v
	d.n++
}

// PushFront prepends v: it becomes the next PopFront result.
func (d *Deque[T]) PushFront(v T) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.head--
	if d.head < 0 {
		d.head = len(d.buf) - 1
	}
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

// At returns the i-th queued item (0 is the front). It panics when i is out
// of range, mirroring slice indexing.
func (d *Deque[T]) At(i int) T {
	if i < 0 || i >= d.n {
		panic("ring: index out of range")
	}
	j := d.head + i
	if j >= len(d.buf) {
		j -= len(d.buf)
	}
	return d.buf[j]
}

// ForEach calls f on every queued item, front to back, without removing any.
// The deque must not be mutated during the walk.
func (d *Deque[T]) ForEach(f func(T)) {
	for i := 0; i < d.n; i++ {
		f(d.At(i))
	}
}

// PopFront removes and returns the oldest item, zeroing its slot.
func (d *Deque[T]) PopFront() (v T, ok bool) {
	if d.n == 0 {
		return v, false
	}
	v = d.buf[d.head]
	var zero T
	d.buf[d.head] = zero // release reference for GC / packet pooling
	d.head++
	if d.head == len(d.buf) {
		d.head = 0
	}
	d.n--
	return v, true
}
