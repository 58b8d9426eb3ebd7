package link

import (
	"math/rand"
	"testing"

	"nifdy/internal/sim"
)

// boardModel is the reference a boarded word is held to: the arrival cycles
// of the events a wire's consumer has not received yet, oldest first.
type boardModel []sim.Cycle

func (m boardModel) next() sim.Cycle {
	if len(m) == 0 {
		return sim.Never
	}
	return m[0]
}

func checkBoard(t *testing.T, step string, slot *sim.Cycle, w *Wire[int], m boardModel) {
	t.Helper()
	if *slot != m.next() || w.NextAt() != m.next() {
		t.Fatalf("%s: board word %d, NextAt %d, oldest pending arrival %d", step, *slot, w.NextAt(), m.next())
	}
}

// TestBoardTracksRandomTraffic drives a boarded wire with a random
// Send/Recv sequence — bursts long enough to reach the prefix compaction
// (head > 64), drains that rewind the event list, empty polls — and holds
// the boarded word to the reference after every step.
func TestBoardTracksRandomTraffic(t *testing.T) {
	rnd := rand.New(rand.NewSource(1995))
	board := []sim.Cycle{7, 7, 7} // the wire's word sits between two others
	w := NewWire[int](2)
	w.Board(&board[1])
	var m boardModel
	checkBoard(t, "boarded empty", &board[1], w, m)
	now := sim.Cycle(0)
	rewinds, compactions := 0, 0
	for step := 0; step < 20_000; step++ {
		switch rnd.Intn(4) {
		case 0, 1: // a burst of sends
			for n := rnd.Intn(40); n > 0; n-- {
				w.Send(now, step)
				m = append(m, now+2)
			}
		case 2: // receive everything that has arrived, then poll empty
			for {
				headBefore := w.head
				_, ok := w.Recv(now)
				if headBefore > 0 && w.head == 0 {
					if len(w.events) == 0 {
						rewinds++
					} else {
						compactions++
					}
				}
				if !ok {
					break
				}
				if m.next() > now {
					t.Fatalf("step %d: received an event the reference has not due until %d at %d", step, m.next(), now)
				}
				m = m[1:]
				checkBoard(t, "after Recv", &board[1], w, m)
			}
			if m.next() <= now {
				t.Fatalf("step %d: Recv refused an event due at %d at %d", step, m.next(), now)
			}
		case 3: // receive some of what has arrived
			for n := rnd.Intn(8); n > 0 && m.next() <= now; n-- {
				w.Recv(now)
				m = m[1:]
			}
		}
		checkBoard(t, "after step", &board[1], w, m)
		now += sim.Cycle(rnd.Intn(3))
	}
	if rewinds == 0 || compactions == 0 {
		t.Fatalf("sequence reached %d rewinds and %d compactions; it must reach both", rewinds, compactions)
	}
	if board[0] != 7 || board[2] != 7 {
		t.Fatalf("the wire wrote outside its word: %v", board)
	}
}

// TestBoardCarriesPendingArrival: boarding a wire that already holds events
// moves its next arrival into the slot.
func TestBoardCarriesPendingArrival(t *testing.T) {
	w := NewWire[int](3)
	w.Send(10, 1)
	w.Send(11, 2)
	slot := sim.Never
	w.Board(&slot)
	checkBoard(t, "boarded with events", &slot, w, boardModel{13, 14})
	w.Recv(13)
	checkBoard(t, "after Recv", &slot, w, boardModel{14})
}

// TestBoardCrossShard: on a cross-shard wire the word moves only at the
// window boundary — a staged send leaves it alone, Flush publishes the first
// staged arrival — and InjectAt, the process-ingress side, writes it too.
func TestBoardCrossShard(t *testing.T) {
	var fl sim.Flusher
	slot := sim.Never
	w := NewWire[int](1)
	w.Board(&slot)
	w.CrossShard(&fl)
	w.SendAt(5, 70)
	w.SendAt(6, 80)
	checkBoard(t, "staged, not flushed", &slot, w, nil)
	w.Flush()
	checkBoard(t, "flushed", &slot, w, boardModel{5, 6})
	w.Recv(5)
	w.SendAt(9, 90)
	checkBoard(t, "second batch staged", &slot, w, boardModel{6})
	w.Flush()
	w.Recv(6)
	checkBoard(t, "second batch flushed", &slot, w, boardModel{9})
	w.Recv(9)
	checkBoard(t, "drained", &slot, w, nil)
	w.InjectAt(12, 1)
	w.InjectAt(15, 2)
	checkBoard(t, "injected", &slot, w, boardModel{12, 15})
}

// TestLinkBoard: a link boards its wire.
func TestLinkBoard(t *testing.T) {
	slot := sim.Never
	l := NewLink[int](4, 1)
	l.Board(&slot)
	l.Send(0, 1)
	if slot != 4 || l.NextAt() != 4 {
		t.Fatalf("board word %d, NextAt %d after a 4-cycle flit sent at 0; want 4", slot, l.NextAt())
	}
	l.Recv(4)
	if slot != sim.Never {
		t.Fatalf("board word %d after the drain; want Never", slot)
	}
}
