package flow

import (
	"slices"
	"testing"

	"nifdy/internal/rng"
)

// classHeapIDs is the flow-id space the class-heap scripts draw from: enough
// members for three levels of the 4-ary heap.
const classHeapIDs = 96

// runClassHeap drives one share class through a script of joins, leaves and
// drains, three bytes per operation, against a reference map of member tags,
// and reports the most members the heap held at once.
// Joins and leaves go through the solver's join and leave, drains through
// drainDue after the service moves on. After every operation the heap must
// be in d-ary order, every entry's tag must be its record's rem, every
// record's back-pointer must name its entry (and be -1 off the heap), and
// the heap must hold exactly the reference's members; a drain must yield
// exactly the members whose tag the service has reached.
func runClassHeap(t *testing.T, script []byte) (most int) {
	f := New(Config{Nodes: classHeapIDs / 2})
	cl := &f.classes[0]
	want := map[int32]int64{} // member id → finish tag
	var seq int64
	check := func(op int) {
		t.Helper()
		for i, e := range cl.heap {
			if i > 0 {
				if p := cl.heap[(i-1)/heapArity]; p.tag > e.tag {
					t.Fatalf("op %d: heap[%d] tag %d under parent tag %d", op, i, e.tag, p.tag)
				}
			}
			if got := f.flows[e.id].heap; got != int32(i) {
				t.Fatalf("op %d: flow %d sits at %d, its record says %d", op, e.id, i, got)
			}
			if rem := f.flows[e.id].rem; rem != e.tag {
				t.Fatalf("op %d: flow %d's entry carries tag %d, its record %d", op, e.id, e.tag, rem)
			}
			if tag, ok := want[e.id]; !ok || tag != e.tag {
				t.Fatalf("op %d: flow %d in the heap with tag %d, reference has %d (member %t)", op, e.id, e.tag, tag, ok)
			}
		}
		if len(cl.heap) != len(want) {
			t.Fatalf("op %d: heap holds %d members, reference %d", op, len(cl.heap), len(want))
		}
		for id := range f.flows {
			if _, ok := want[int32(id)]; !ok && f.flows[id].heap != -1 {
				t.Fatalf("op %d: flow %d is no member but its record says heap %d", op, id, f.flows[id].heap)
			}
		}
	}
	for op := 0; op+3 <= len(script); op += 3 {
		b0, b1, b2 := script[op], script[op+1], script[op+2]
		switch b0 % 8 {
		case 0, 1, 2, 3, 4: // join, with remainders from a small range so tags tie
			id := int32(b1) % classHeapIDs
			if _, ok := want[id]; ok {
				continue
			}
			fl := &f.flows[id]
			fl.rem, fl.rate, fl.seq = 1+int64(b2)*rateQ/16, 0, seq
			seq++
			f.join(0, cl, id)
			want[id] = fl.rem
		case 5: // leave the member ranked b1 by id
			if len(want) == 0 {
				continue
			}
			var ids []int32
			for id := range want {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			id := ids[int(b1)%len(ids)]
			f.leave(cl, id)
			if got, tag := f.flows[id].rem, want[id]; got != tag-cl.s {
				t.Fatalf("op %d: flow %d left with remainder %d, want tag %d − service %d", op, id, got, tag, cl.s)
			}
			delete(want, id)
		default: // the service moves on by up to a sixteenth of the tag range; the members it reached drain
			cl.s += int64(b1) * rateQ / 256
			f.drained = f.drained[:0]
			f.drainDue(cl)
			var got, due []int32
			for _, d := range f.drained {
				got = append(got, d.id)
				if f.flows[d.id].seq != d.seq {
					t.Fatalf("op %d: drained flow %d carries seq %d, its record %d", op, d.id, d.seq, f.flows[d.id].seq)
				}
			}
			for id, tag := range want {
				if tag <= cl.s {
					due = append(due, id)
					delete(want, id)
				}
			}
			slices.Sort(got)
			slices.Sort(due)
			if !slices.Equal(got, due) {
				t.Fatalf("op %d: service %d drained %v, want %v", op, cl.s, got, due)
			}
		}
		check(op)
		most = max(most, len(cl.heap))
	}
	return most
}

// TestClassHeap runs random scripts long enough to fill the heap more than
// three levels deep and drain it many times over.
func TestClassHeap(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		script := make([]byte, 3*2000)
		for i := range script {
			script[i] = byte(r.Intn(256))
		}
		if most := runClassHeap(t, script); most <= 1+heapArity+heapArity*heapArity {
			t.Fatalf("seed %d: the heap held at most %d members: the script never filled three levels", seed, most)
		}
	}
}

// FuzzClassHeap is the same check over fuzzer-chosen scripts (go test -fuzz
// FuzzClassHeap ./internal/flow).
func FuzzClassHeap(f *testing.F) {
	f.Add([]byte{0, 5, 7, 1, 9, 7, 0, 11, 3, 3, 2, 2, 2, 0, 0, 3, 255, 255})
	f.Add([]byte{0, 1, 1, 0, 2, 1, 0, 3, 1, 0, 4, 1, 0, 5, 1, 2, 3, 0, 3, 4, 4})
	f.Fuzz(func(t *testing.T, script []byte) { runClassHeap(t, script) })
}
