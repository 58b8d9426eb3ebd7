package ring

import (
	"testing"
)

// FuzzDeque drives a Deque and a reference slice through the same byte-coded
// operation sequence and cross-checks every observable after each step. The
// deque backs the simulator's hot FIFOs (NIC outgoing/arrival queues,
// processor inboxes), where a wrap-around or grow bug would silently corrupt
// packet order rather than crash.
//
// Op coding: each byte b selects op b%5 — 0 PushBack, 1 PushFront,
// 2 PopFront, 3 Front peek, 4 full At/ForEach sweep. Pushed values are a
// running counter, so any misplacement is visible as a value mismatch.
func FuzzDeque(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 2, 2})          // FIFO push/pop
	f.Add([]byte{1, 1, 1, 2, 2, 2})          // LIFO via PushFront
	f.Add([]byte{0, 1, 0, 1, 4, 2, 2, 2, 2}) // mixed ends + sweep
	f.Add([]byte{2, 3, 4})                   // ops on empty deque
	// Push enough to force every early grow (capacity 2, 4, 8, then 16),
	// then drain across the wrap point.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2, 0, 0, 0, 2, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var d Deque[int]
		var ref []int
		next := 0
		for _, b := range ops {
			switch b % 5 {
			case 0:
				d.PushBack(next)
				ref = append(ref, next)
				next++
			case 1:
				d.PushFront(next)
				ref = append([]int{next}, ref...)
				next++
			case 2:
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
			case 3:
				v, ok := d.Front()
				if ok != (len(ref) > 0) {
					t.Fatalf("Front ok=%v with %d items", ok, len(ref))
				}
				if ok && v != ref[0] {
					t.Fatalf("Front = %d, want %d", v, ref[0])
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
			}
			if d.Len() != len(ref) {
				t.Fatalf("Len = %d, want %d", d.Len(), len(ref))
			}
		}
	})
}
