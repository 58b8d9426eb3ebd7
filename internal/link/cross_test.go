package link

import (
	"testing"

	"nifdy/internal/sim"
)

// TestWireCrossShardStagesUntilFlush pins the staged-send protocol: on a
// cross-shard wire, SendAt must be invisible to the consumer (Pending,
// Ready, NextAt, the observer) until Flush merges the staged batch, and the
// observer must wake at exactly the first staged arrival.
func TestWireCrossShardStagesUntilFlush(t *testing.T) {
	var fl sim.Flusher
	var act sim.Activity
	act.Sleep(sim.Never)
	w := NewWire[int](1)
	w.Observe(&act)
	w.CrossShard(&fl)
	w.SendAt(5, 70)
	w.SendAt(6, 80)
	if w.Pending() != 0 || w.Ready(10) {
		t.Fatalf("staged sends visible before merge: pending=%d", w.Pending())
	}
	if !act.Asleep(1 << 30) {
		t.Fatal("observer woken before the merge")
	}
	w.Flush() // the writer shard's flush phase merges the staged batch
	if act.Asleep(5) || !act.Asleep(4) {
		t.Fatal("observer must wake at exactly the first staged arrival (5)")
	}
	if got := w.NextAt(); got != 5 {
		t.Fatalf("NextAt=%d after merge; want 5", got)
	}
	if v, ok := w.Recv(5); !ok || v != 70 {
		t.Fatalf("Recv(5)=%d,%t; want 70,true", v, ok)
	}
	if _, ok := w.Recv(5); ok {
		t.Fatal("cycle-6 value delivered a cycle early")
	}
	if v, ok := w.Recv(6); !ok || v != 80 {
		t.Fatalf("Recv(6)=%d,%t; want 80,true", v, ok)
	}
	// The staging path re-arms after a merge.
	w.SendAt(9, 90)
	if w.Pending() != 0 {
		t.Fatal("post-merge send visible before the next merge")
	}
	w.Flush()
	if v, ok := w.Recv(9); !ok || v != 90 {
		t.Fatalf("Recv(9)=%d,%t; want 90,true", v, ok)
	}
}

// TestWireCrossShardMatchesSerial runs the same producer/consumer pair on a
// serial engine and split across two shards of a parallel engine with the
// wire marked cross-shard; deliveries must be identical.
func TestWireCrossShardMatchesSerial(t *testing.T) {
	run := func(shards int) []int {
		e := sim.NewParallel(shards)
		defer e.Close()
		w := NewWire[int](1)
		prod := 0
		if shards > 1 {
			prod = 1
			w.CrossShard(e.CrossFlusher(prod))
		}
		e.RegisterSharded(prod, sim.TickFunc(func(now sim.Cycle) {
			if now < 10 {
				w.Send(now, int(now)*3)
			}
		}))
		var got []int
		e.RegisterSharded(0, sim.TickFunc(func(now sim.Cycle) {
			for {
				v, ok := w.Recv(now)
				if !ok {
					break
				}
				got = append(got, v)
			}
		}))
		e.Run(15)
		return got
	}
	serial := run(1)
	cross := run(2)
	if len(serial) != 10 {
		t.Fatalf("serial run delivered %d values; want 10", len(serial))
	}
	for i, v := range serial {
		if i >= len(cross) || cross[i] != v {
			t.Fatalf("cross-shard delivery diverges:\nserial: %v\ncross:  %v", serial, cross)
		}
	}
}
