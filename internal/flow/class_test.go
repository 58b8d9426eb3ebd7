package flow

import (
	"slices"
	"testing"

	"nifdy/internal/rng"
	"nifdy/internal/topo"
)

// classHeapIDs is the flow-id space the class scripts draw from: enough
// members for three levels of the 4-ary heap beside the FIFO members.
const classHeapIDs = 96

// classReach is how far one class script got into the class store.
type classReach struct {
	heap, fifo int // the most heap and FIFO members at once
	dups       int // FIFO members that left and rejoined with the service unmoved: two live-looking entries
	resets     int // clock restarts that dropped stale FIFO entries
}

// runClassHeap drives one share class through a script of joins, leaves,
// clock restarts and drains, three bytes per operation, against a reference
// map of member tags, and reports how far it reached. Joins and leaves go
// through the solver's join and leave; a drain syncs the clock as step does,
// moves the service on and runs drainDue. Joiners with a partial remainder
// take the heap; joiners with a whole-flit one take a FIFO, or the heap if
// the FIFO table ends below it.
//
// After every operation: the heap is in d-ary order, every heap entry's tag
// is its record's rem, every record's back-pointer names its entry; each
// FIFO is non-empty exactly while its used bit is set and in tag order,
// stale entries included; the heap and the live FIFO entries together hold
// exactly the reference's members at the reference's tags; a non-member's
// record says -1; and minTag reads the smallest reference tag. A drain must
// yield exactly the members whose tag the service has reached, and emptying
// the class and syncing must restart its clock with empty FIFOs.
func runClassHeap(t *testing.T, script []byte) (reach classReach) {
	f := New(Config{Characteristics: topo.Characteristics{Nodes: classHeapIDs / 2}})
	cl := &f.classes[0]
	want := map[int32]int64{} // member id → finish tag
	var seq int64
	ranked := func(b byte) int32 {
		ids := make([]int32, 0, len(want))
		for id := range want {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		return ids[int(b)%len(ids)]
	}
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
		inFIFO := map[int32]bool{}
		for k := range cl.fifo {
			q := &cl.fifo[k]
			if used := cl.used>>k&1 == 1; used != (q.Len() > 0) {
				t.Fatalf("op %d: FIFO %d holds %d entries, used bit %t", op, k, q.Len(), used)
			}
			for i := range q.Len() {
				e := q.At(i)
				if i > 0 && q.At(i-1).tag > e.tag {
					t.Fatalf("op %d: FIFO %d entry %d tag %d behind tag %d", op, k, i, e.tag, q.At(i-1).tag)
				}
				if !f.fifoLive(cl, e) {
					continue
				}
				if tag, ok := want[e.id]; !ok || tag != e.tag {
					t.Fatalf("op %d: flow %d live in FIFO %d with tag %d, reference has %d (member %t)", op, e.id, k, e.tag, tag, ok)
				}
				inFIFO[e.id] = true
			}
		}
		if len(inFIFO) != int(cl.live) {
			t.Fatalf("op %d: %d flows live in the FIFOs, the class counts %d", op, len(inFIFO), cl.live)
		}
		if len(cl.heap)+len(inFIFO) != len(want) {
			t.Fatalf("op %d: heap holds %d members and the FIFOs %d, reference %d", op, len(cl.heap), len(inFIFO), len(want))
		}
		for id := range f.flows {
			if _, ok := want[int32(id)]; !ok && f.flows[id].heap != -1 {
				t.Fatalf("op %d: flow %d is no member but its record says heap %d", op, id, f.flows[id].heap)
			}
		}
		least, some := int64(0), false
		for _, tag := range want {
			if !some || tag < least {
				least, some = tag, true
			}
		}
		if tag, ok := f.minTag(cl); ok != some || ok && tag != least {
			t.Fatalf("op %d: minTag reads %d (member %t), the reference's least tag is %d (of %d members)", op, tag, ok, least, len(want))
		}
	}
	join := func(id int32, rem int64) {
		fl := &f.flows[id]
		fl.rem, fl.rate, fl.seq = rem, 0, seq
		seq++
		f.join(0, cl, id)
		want[id] = fl.rem
	}
	leave := func(op int, id int32) {
		f.leave(cl, id)
		if got, tag := f.flows[id].rem, want[id]; got != tag-cl.s {
			t.Fatalf("op %d: flow %d left with remainder %d, want tag %d − service %d", op, id, got, tag, cl.s)
		}
		delete(want, id)
	}
	sync := func() {
		if len(cl.heap) == 0 && cl.live == 0 && cl.used != 0 {
			reach.resets++
		}
		cl.sync(cl.at) // share 0: only an empty class's restart moves anything
	}
	for op := 0; op+3 <= len(script); op += 3 {
		b0, b1, b2 := script[op], script[op+1], script[op+2]
		switch b0 % 16 {
		case 0, 1, 2, 3, 4: // a partial remainder, from a small range so tags tie
			id := int32(b1) % classHeapIDs
			if _, ok := want[id]; ok {
				continue
			}
			join(id, 1+int64(b2)*rateQ/16)
		case 5, 6, 7, 8: // a whole-flit remainder, a few past the FIFO table's end
			id := int32(b1) % classHeapIDs
			if _, ok := want[id]; ok {
				continue
			}
			k := 1 + int64(b2)%8
			if b2 >= 240 {
				k = classFIFOs - 8 + int64(b2)%16
			}
			join(id, k*rateQ)
		case 9, 10: // leave the member ranked b1 by id
			if len(want) == 0 {
				continue
			}
			leave(op, ranked(b1))
		case 11: // leave and rejoin at once: the service has not moved, so the tag is the same
			if len(want) == 0 {
				continue
			}
			id := ranked(b1)
			fifo := f.flows[id].heap < -1
			leave(op, id)
			join(id, f.flows[id].rem)
			if fifo {
				reach.dups++
			}
		case 12: // now and then, empty the class: its clock restarts
			if b1 >= 24 {
				continue
			}
			for len(want) > 0 {
				leave(op, ranked(b2))
			}
			sync()
			if cl.s != 0 || cl.used != 0 {
				t.Fatalf("op %d: emptied class synced to service %d with FIFOs %#x in use", op, cl.s, cl.used)
			}
		default: // the service moves on by up to a sixteenth of the partial tag range; the members it reached drain
			sync()
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
		reach.heap = max(reach.heap, len(cl.heap))
		reach.fifo = max(reach.fifo, int(cl.live))
	}
	return reach
}

// TestClassHeap runs random scripts long enough to fill the heap more than
// three levels deep, spread members over several FIFOs, rejoin FIFO members
// behind their own stale entries and restart the clock over stale entries,
// draining it all many times over.
func TestClassHeap(t *testing.T) {
	var sum classReach
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		script := make([]byte, 3*2000)
		for i := range script {
			script[i] = byte(r.Intn(256))
		}
		reach := runClassHeap(t, script)
		if reach.heap <= 1+heapArity+heapArity*heapArity {
			t.Fatalf("seed %d: the heap held at most %d members: the script never filled three levels", seed, reach.heap)
		}
		sum.fifo = max(sum.fifo, reach.fifo)
		sum.dups += reach.dups
		sum.resets += reach.resets
	}
	t.Logf("%+v", sum)
	if sum.fifo < 8 || sum.dups == 0 || sum.resets == 0 {
		t.Fatalf("the scripts do not reach the FIFOs' corners: %+v", sum)
	}
}

// FuzzClassHeap is the same check over fuzzer-chosen scripts (go test -fuzz
// FuzzClassHeap ./internal/flow).
func FuzzClassHeap(f *testing.F) {
	f.Add([]byte{0, 5, 7, 1, 9, 7, 0, 11, 3, 3, 2, 2, 2, 0, 0, 3, 255, 255})
	f.Add([]byte{0, 1, 1, 0, 2, 1, 0, 3, 1, 0, 4, 1, 0, 5, 1, 2, 3, 0, 3, 4, 4})
	// Whole-flit joins, a same-tag rejoin, a drain, an emptied class, a join.
	f.Add([]byte{5, 1, 2, 6, 2, 250, 7, 3, 2, 11, 0, 0, 13, 128, 0, 12, 0, 0, 5, 1, 1})
	f.Fuzz(func(t *testing.T, script []byte) { runClassHeap(t, script) })
}
