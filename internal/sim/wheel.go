package sim

import "math/bits"

// The wheel has wheelSize buckets; an entry for cycle k lives in bucket
// k&wheelMask, so a deadline up to wheelSize cycles ahead is filed and
// expires without ever being looked at in between, and a longer one is
// passed over once per lap.
const (
	wheelSize = 1 << 10
	wheelMask = wheelSize - 1
)

// wheelNode is one id's node in a Wheel: the cycle it is filed under (0 = not
// filed; a filed key is always a future cycle, so never 0) and its neighbours
// in that bucket's doubly-linked list (-1 = none).
type wheelNode struct {
	key        Cycle
	next, prev int32
}

// Wheel is an intrusive bucket timer wheel over a dense id space: each id
// holds at most one entry, filed under a future cycle, and every operation is
// a few index writes — nothing allocates once the nodes are sized. It is the
// storage under two schedulers with different expiry policies: the engine's
// active set files sleeping components under a lower bound of their wake time
// and validates entries when their bucket drains; the flow solver files
// draining flows under their exact drain cycle. Both walk a bucket with
// First/Next/Key and decide per entry, so the policy stays at the call site.
//
// The contract callers keep is the one Earliest needs: every filed key is at
// or ahead of the next cycle the caller will drain, so the bucket of a cycle
// is always drained in the cycle of its smallest key.
//
// A Wheel is used from one goroutine at a time; Init must run before the
// first File.
type Wheel struct {
	head   [wheelSize]int32       // bucket heads into nodes; -1 = empty
	filled [wheelSize / 64]uint64 // bit b set iff bucket b is not empty
	nodes  []wheelNode            // one per id
}

// Init empties the wheel.
func (w *Wheel) Init() {
	for i := range w.head {
		w.head[i] = -1
	}
}

// Grow makes ids [0, n) fileable, keeping the entries already filed. The
// node table at least doubles when it reallocates, so growing it one id at
// a time leaves little garbage (Push).
func (w *Wheel) Grow(n int) {
	if n > len(w.nodes) {
		w.nodes = reserve(w.nodes, n)[:n]
	}
}

// Key reports the cycle id is filed under, 0 when it holds no entry.
func (w *Wheel) Key(id int32) Cycle { return w.nodes[id].key }

// First reports the first entry in the bucket cycle c maps to, -1 when the
// bucket is empty. The bucket also holds entries of later laps: callers
// compare Key.
func (w *Wheel) First(c Cycle) int32 { return w.head[c&wheelMask] }

// Next reports the entry after id in its bucket, -1 at the end. Read it
// before unlinking id.
func (w *Wheel) Next(id int32) int32 { return w.nodes[id].next }

// File enters id, which must hold no entry, under the future cycle k.
func (w *Wheel) File(id int32, k Cycle) {
	b := k & wheelMask
	head := w.head[b]
	n := &w.nodes[id]
	n.key, n.prev, n.next = k, -1, head
	if head >= 0 {
		w.nodes[head].prev = id
	} else {
		w.filled[b>>6] |= 1 << (b & 63)
	}
	w.head[b] = id
}

// Unlink removes id's entry from its bucket.
func (w *Wheel) Unlink(id int32) {
	n := &w.nodes[id]
	if n.prev >= 0 {
		w.nodes[n.prev].next = n.next
	} else {
		b := n.key & wheelMask
		w.head[b] = n.next
		if n.next < 0 {
			w.filled[b>>6] &^= 1 << (b & 63)
		}
	}
	if n.next >= 0 {
		w.nodes[n.next].prev = n.prev
	}
	n.key = 0
}

// Earliest reports the smallest filed key, Never with nothing filed, given
// that no filed key is below from.
func (w *Wheel) Earliest(from Cycle) Cycle {
	min := Never
	// Walk the non-empty buckets in the order the clock will reach them, d
	// cycles from now, until none left could hold a key below min.
	for d := Cycle(0); d < wheelSize && from+d < min; d++ {
		b := (from + d) & wheelMask
		rest := w.filled[b>>6] >> (b & 63)
		if rest == 0 {
			d += 63 - b&63 // nothing up to the end of this word
			continue
		}
		if skip := Cycle(bits.TrailingZeros64(rest)); skip > 0 {
			d += skip - 1
			continue
		}
		for i := w.head[b]; i >= 0; i = w.nodes[i].next {
			k := w.nodes[i].key
			if k == from+d {
				// This lap's: nothing in this bucket or a later one is
				// smaller, and every earlier bucket held later laps only.
				return k
			}
			if k < min {
				min = k
			}
		}
	}
	return min
}
