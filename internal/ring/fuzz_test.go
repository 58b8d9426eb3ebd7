package ring

import (
	"testing"
)

// FuzzDeque drives a Deque and a reference slice through the same byte-coded
// operation sequence and cross-checks every observable after each step. The
// deque backs the simulator's hot FIFOs (router input VCs, wire events,
// ejection queues, NIC queues, processor inboxes), where a wrap-around or
// grow bug would silently corrupt packet order rather than crash.
//
// Op coding: each byte b selects op b%8 — 0 PushBack, 1 PushFront,
// 2 PopFront, 3 Front and Back peeks, 4 full At/ForEach sweep, 5 PopBack,
// 6 PushBack then PopFront (walks the ring's head round the buffer),
// 7 Reserve(b/8). Pushed values are a running counter from 1, so any
// misplacement is visible as a value mismatch and a slot left holding a
// popped value is visible as non-zero. After every op the capacity must be
// the reference's (a power of two that doubles, from 2, only when full or
// reserved) and every slot outside the queued items must be zero.
func FuzzDeque(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 2, 2})          // FIFO push/pop
	f.Add([]byte{1, 1, 1, 2, 2, 2})          // LIFO via PushFront
	f.Add([]byte{0, 1, 0, 1, 4, 2, 2, 2, 2}) // mixed ends + sweep
	f.Add([]byte{2, 3, 4, 5})                // ops on empty deque
	f.Add([]byte{0, 0, 5, 3, 5, 5})          // LIFO via PopBack
	// Push enough to force every early grow (capacity 2, 4, 8, then 16),
	// then drain across the wrap point.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2, 0, 0, 0, 2, 2})
	// Walk the head round a 4-slot ring, then grow while wrapped and sweep.
	f.Add([]byte{0, 0, 0, 6, 6, 6, 0, 0, 4, 3, 5, 4})
	// Reserve 5 (rounds to 8) and 16 over a wrapped deque, then no-op.
	f.Add([]byte{0, 0, 6, 6, 6, 7 + 5*8, 4, 0, 0, 7 + 16*8, 4, 7 + 3*8, 5, 2, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var d Deque[int]
		var ref []int
		wantCap := 0
		next := 1
		push := func(front bool) {
			if len(ref) == wantCap {
				wantCap = max(2, 2*wantCap)
			}
			if front {
				d.PushFront(next)
				ref = append([]int{next}, ref...)
			} else {
				d.PushBack(next)
				ref = append(ref, next)
			}
			next++
		}
		popFront := func() {
			v, ok := d.PopFront()
			if ok != (len(ref) > 0) {
				t.Fatalf("PopFront ok=%v with %d items", ok, len(ref))
			}
			if ok {
				if v != ref[0] {
					t.Fatalf("PopFront = %d, want %d", v, ref[0])
				}
				ref = ref[1:]
			}
		}
		for _, b := range ops {
			switch b % 8 {
			case 0:
				push(false)
			case 1:
				push(true)
			case 2:
				popFront()
			case 3:
				v, ok := d.Front()
				if ok != (len(ref) > 0) {
					t.Fatalf("Front ok=%v with %d items", ok, len(ref))
				}
				if ok && v != ref[0] {
					t.Fatalf("Front = %d, want %d", v, ref[0])
				}
				v, ok = d.Back()
				if ok != (len(ref) > 0) {
					t.Fatalf("Back ok=%v with %d items", ok, len(ref))
				}
				if ok && v != ref[len(ref)-1] {
					t.Fatalf("Back = %d, want %d", v, ref[len(ref)-1])
				}
			case 4:
				for i, want := range ref {
					if got := d.At(i); got != want {
						t.Fatalf("At(%d) = %d, want %d", i, got, want)
					}
				}
				i := 0
				d.ForEach(func(v int) {
					if v != ref[i] {
						t.Fatalf("ForEach[%d] = %d, want %d", i, v, ref[i])
					}
					i++
				})
				if i != len(ref) {
					t.Fatalf("ForEach visited %d items, want %d", i, len(ref))
				}
			case 5:
				v, ok := d.PopBack()
				if ok != (len(ref) > 0) {
					t.Fatalf("PopBack ok=%v with %d items", ok, len(ref))
				}
				if ok {
					if v != ref[len(ref)-1] {
						t.Fatalf("PopBack = %d, want %d", v, ref[len(ref)-1])
					}
					ref = ref[:len(ref)-1]
				}
			case 6:
				push(false)
				popFront()
			case 7:
				n := int(b / 8)
				d.Reserve(n)
				if n > wantCap {
					wantCap = max(2, wantCap)
					for wantCap < n {
						wantCap *= 2
					}
				}
			}
			if d.Len() != len(ref) {
				t.Fatalf("Len = %d, want %d", d.Len(), len(ref))
			}
			if d.Cap() != wantCap {
				t.Fatalf("Cap = %d after op %d, want %d", d.Cap(), b%8, wantCap)
			}
			checkSlots(t, &d)
		}
	})
}

// checkSlots fails unless every slot of d that holds no queued item is zero.
func checkSlots(t *testing.T, d *Deque[int]) {
	t.Helper()
	for i, v := range d.buf {
		queued := (uint32(i)-d.head)&d.mask() < d.n
		if !queued && v != 0 {
			t.Fatalf("slot %d retains %d outside the %d queued items from slot %d", i, v, d.n, d.head)
		}
	}
}
