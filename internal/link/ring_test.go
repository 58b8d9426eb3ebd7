package link

import (
	"math/rand"
	"testing"

	"nifdy/internal/sim"
)

// TestBusyWireStaysBounded keeps a link and a wire busy for a million cycles
// without ever letting them drain, each consumer receiving only while its
// boarded word is due, as a router's drain loop does. Each backing buffer
// must stop at its in-flight count rounded up to a power of two, and a
// steady-state cycle must allocate nothing.
func TestBusyWireStaysBounded(t *testing.T) {
	const cycles = 1_000_000
	var lslot, wslot sim.Cycle
	l := NewLink[int](4, 1) // a 4-cycle flit: at most 2 in flight
	l.Board(&lslot)
	w := NewWire[int](4) // one send per cycle: at most 5 in flight
	w.Board(&wslot)
	now := sim.Cycle(0)
	cycle := func() {
		// The senders run first, so a flit arriving this cycle is never
		// the only one in flight when its consumer drains.
		if l.CanSend(now) {
			l.Send(now, int(now))
		}
		w.Send(now, int(now))
		for lslot <= now {
			l.Recv(now)
		}
		for wslot <= now {
			w.Recv(now)
		}
		now++
	}
	for range cycles {
		cycle()
		if l.Pending() == 0 || w.Pending() == 0 {
			t.Fatalf("cycle %d: a wire drained (link %d, wire %d in flight)", now, l.Pending(), w.Pending())
		}
	}
	if got := l.wire.q.Cap(); got > 4 {
		t.Errorf("link buffer holds %d events after %d busy cycles; want ≤ 4", got, cycles)
	}
	if got := w.q.Cap(); got > 8 {
		t.Errorf("wire buffer holds %d events after %d busy cycles; want ≤ 8", got, cycles)
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("a steady-state cycle allocates %.1f times; want 0", allocs)
	}
}

// wireEvent is the reference's record of one send.
type wireEvent struct {
	at sim.Cycle
	v  int
}

// runWire interprets script as operations on a boarded wire — send bursts,
// due-guarded and unguarded receives, clock steps and, on a cross-shard wire
// (the first byte's low bit), window-boundary flushes — and holds the wire
// after every operation to a plain-slice reference: the values and their
// order, Pending, NextAt, the boarded word, ForEach and the ring's size.
func runWire(t *testing.T, script []byte) {
	var fl sim.Flusher
	board := []sim.Cycle{7, sim.Never, 7} // the wire's word sits between two others
	w := NewWire[int](2)
	w.Board(&board[1])
	cross := len(script) > 0 && script[0]&1 == 1
	if cross {
		w.CrossShard(&fl)
	}
	var staged, vis []wireEvent
	now, last, sent, highWater := sim.Cycle(0), sim.Cycle(0), 0, 0
	arg := func(i int) int {
		if i < len(script) {
			return int(script[i])
		}
		return 0
	}
	recv := func(op int) bool {
		t.Helper()
		v, ok := w.Recv(now)
		if due := len(vis) > 0 && vis[0].at <= now; ok != due {
			t.Fatalf("op %d: Recv(%d) ok=%t; reference due=%t", op, now, ok, due)
		}
		if ok {
			if v != vis[0].v {
				t.Fatalf("op %d: Recv(%d) = %d; want %d", op, now, v, vis[0].v)
			}
			vis = vis[1:]
		}
		return ok
	}
	check := func(op int) {
		t.Helper()
		next := sim.Never
		if len(vis) > 0 {
			next = vis[0].at
		}
		if w.Pending() != len(vis) || w.NextAt() != next || board[1] != next {
			t.Fatalf("op %d: Pending %d, NextAt %d, board word %d; reference %d pending, next %d",
				op, w.Pending(), w.NextAt(), board[1], len(vis), next)
		}
		if board[0] != 7 || board[2] != 7 {
			t.Fatalf("op %d: the wire wrote outside its word: %v", op, board)
		}
		highWater = max(highWater, len(vis))
		want := 0
		if highWater > 0 {
			want = 2
			for want < highWater {
				want *= 2
			}
		}
		if w.q.Cap() != want {
			t.Fatalf("op %d: ring of %d slots after at most %d events in flight; want %d", op, w.q.Cap(), highWater, want)
		}
		if len(staged) > 0 {
			return // ForEach refuses unmerged staging; the panic test holds that
		}
		i := 0
		w.ForEach(func(at sim.Cycle, v int) {
			if i >= len(vis) || (wireEvent{at, v}) != vis[i] {
				t.Fatalf("op %d: ForEach event %d is (%d, %d); reference %v", op, i, at, v, vis)
			}
			i++
		})
		if i != len(vis) {
			t.Fatalf("op %d: ForEach visited %d events; reference %d", op, i, len(vis))
		}
	}
	for op, i := 0, 1; i < len(script); op, i = op+1, i+2 {
		switch script[i] % 6 {
		case 0, 1: // a burst of sends, arrivals spaced 0–2 cycles apart
			for n := arg(i+1) % 9; n > 0; n-- {
				last = max(last+sim.Cycle(n%3), now+w.latency)
				w.SendAt(last, sent)
				e := wireEvent{last, sent}
				if cross {
					staged = append(staged, e)
				} else {
					vis = append(vis, e)
				}
				sent++
			}
		case 2: // drain while the boarded word is due
			for board[1] <= now {
				if !recv(op) {
					t.Fatalf("op %d: board word %d due at %d, Recv refused", op, board[1], now)
				}
			}
		case 3: // unguarded receives, some of them empty polls
			for n := arg(i+1)%4 + 1; n > 0; n-- {
				recv(op)
			}
		case 4: // the clock steps
			now += sim.Cycle(arg(i+1) % 4)
		case 5: // a window boundary
			w.Flush()
			vis = append(vis, staged...)
			staged = staged[:0]
		}
		check(op)
	}
}

// FuzzWire is runWire over fuzzer-chosen scripts (go test -fuzz FuzzWire
// ./internal/link).
func FuzzWire(f *testing.F) {
	f.Add([]byte{0, 0, 8, 1, 5, 4, 2, 2, 0, 3, 3, 0, 7, 4, 3, 2, 0})
	f.Add([]byte{1, 0, 8, 0, 3, 5, 0, 4, 3, 3, 3, 0, 6, 5, 0, 4, 9, 2, 0})
	f.Fuzz(func(t *testing.T, script []byte) { runWire(t, script) })
}

// TestWireScripts runs runWire over long pseudo-random scripts on both kinds
// of wire.
func TestWireScripts(t *testing.T) {
	rnd := rand.New(rand.NewSource(1995))
	for seed := range 8 {
		script := make([]byte, 4000)
		rnd.Read(script)
		script[0] = byte(seed)
		runWire(t, script)
	}
}
