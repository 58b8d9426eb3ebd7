package ring

import "testing"

func TestDequeFIFO(t *testing.T) {
	var d Deque[int]
	if _, ok := d.PopFront(); ok {
		t.Fatal("empty deque popped")
	}
	next, want := 0, 0
	for round := 0; round < 200; round++ {
		for i := 0; i <= round%5; i++ {
			d.PushBack(next)
			next++
		}
		if f, ok := d.Front(); ok && f != want {
			t.Fatalf("front = %d, want %d", f, want)
		}
		for i := 0; i <= round%3 && d.Len() > 0; i++ {
			v, _ := d.PopFront()
			if v != want {
				t.Fatalf("round %d: got %d, want %d", round, v, want)
			}
			want++
		}
	}
	for d.Len() > 0 {
		v, _ := d.PopFront()
		if v != want {
			t.Fatalf("drain: got %d, want %d", v, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("lost items: popped %d, pushed %d", want, next)
	}
}

func TestDequePopZeroesSlot(t *testing.T) {
	var d Deque[*int]
	d.PushBack(new(int))
	d.PopFront()
	for i, s := range d.buf {
		if s != nil {
			t.Fatalf("slot %d retains a popped reference", i)
		}
	}
}

func TestDequeSteadyStateAllocFree(t *testing.T) {
	var d Deque[int]
	for i := 0; i < 16; i++ {
		d.PushBack(i)
	}
	for d.Len() > 0 {
		d.PopFront()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 16; i++ {
			d.PushBack(i)
		}
		for d.Len() > 0 {
			d.PopFront()
		}
	})
	if allocs > 0 {
		t.Fatalf("deque allocates %.1f/op in steady state", allocs)
	}
}

// TestDequeWrapsAndGrowsWrapped holds the two paths a masked ring gets wrong:
// items that wrap past the end of the buffer, and a doubling while they do
// (head != 0 at the growth), which must unwrap them front first.
func TestDequeWrapsAndGrowsWrapped(t *testing.T) {
	var d Deque[int]
	for i := range 4 {
		d.PushBack(i)
	}
	d.PopFront()
	d.PopFront()
	d.PushBack(4)
	d.PushBack(5) // items 2..5 fill the ring from slot 2, wrapping to slot 1
	if d.head == 0 || int(d.head+d.n) <= d.Cap() {
		t.Fatalf("head %d, %d items in %d slots: the items do not wrap", d.head, d.n, d.Cap())
	}
	d.PushBack(6) // full and wrapped: grows
	if d.Cap() != 8 || d.head != 0 {
		t.Fatalf("after a wrapped growth: %d slots, head %d; want 8 slots from head 0", d.Cap(), d.head)
	}
	for want := 2; want <= 6; want++ {
		if v, _ := d.PopFront(); v != want {
			t.Fatalf("popped %d, want %d", v, want)
		}
	}
}

// TestDequeReserve: a deque sized up front holds that many items without
// growing or allocating, rounded up to a power of two, and a smaller Reserve
// never shrinks it.
func TestDequeReserve(t *testing.T) {
	for _, c := range []struct{ n, cap int }{{0, 0}, {1, 2}, {2, 2}, {5, 8}, {16, 16}} {
		var d Deque[int]
		d.Reserve(c.n)
		if d.Cap() != c.cap {
			t.Fatalf("Reserve(%d): %d slots, want %d", c.n, d.Cap(), c.cap)
		}
		d.Reserve(c.n / 2)
		if d.Cap() != c.cap {
			t.Fatalf("Reserve(%d) after Reserve(%d): %d slots, want %d", c.n/2, c.n, d.Cap(), c.cap)
		}
		allocs := testing.AllocsPerRun(100, func() {
			for i := range c.n {
				d.PushBack(i)
			}
			for range c.n {
				d.PopBack()
			}
		})
		if allocs != 0 || d.Cap() != c.cap {
			t.Fatalf("Reserve(%d) then %d items: %.1f allocations, %d slots", c.n, c.n, allocs, d.Cap())
		}
	}
}
