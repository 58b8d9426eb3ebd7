package link

import (
	"testing"
	"testing/quick"
)

func TestWireDelaysByLatency(t *testing.T) {
	w := NewWire[int](3)
	w.Send(10, 42)
	for now := int64(10); now < 13; now++ {
		if _, ok := w.Recv(now); ok {
			t.Fatalf("event visible at cycle %d (latency 3, sent at 10)", now)
		}
	}
	v, ok := w.Recv(13)
	if !ok || v != 42 {
		t.Fatalf("Recv(13) = %d,%v", v, ok)
	}
}

func TestWireMinimumLatencyOne(t *testing.T) {
	w := NewWire[int](0)
	if w.Latency() != 1 {
		t.Fatalf("latency = %d", w.Latency())
	}
	w.Send(5, 1)
	if _, ok := w.Recv(5); ok {
		t.Fatal("zero-latency delivery would break tick-order independence")
	}
	if _, ok := w.Recv(6); !ok {
		t.Fatal("event not delivered at +1")
	}
}

func TestWireFIFO(t *testing.T) {
	w := NewWire[int](1)
	for i := 0; i < 10; i++ {
		w.Send(int64(i), i)
	}
	for i := 0; i < 10; i++ {
		v, ok := w.Recv(100)
		if !ok || v != i {
			t.Fatalf("event %d: got %d,%v", i, v, ok)
		}
	}
	if w.Pending() != 0 {
		t.Fatalf("Pending = %d", w.Pending())
	}
}

func TestWireOutOfOrderSendPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order SendAt did not panic")
		}
	}()
	w := NewWire[int](1)
	w.SendAt(10, 1)
	w.SendAt(9, 2)
}

// TestWireRefillRounds fills and drains a wire fifty times over; the ring's
// head ends each round somewhere new, so later rounds wrap past its end.
func TestWireRefillRounds(t *testing.T) {
	w := NewWire[int](1)
	for round := 0; round < 50; round++ {
		for i := 0; i < 10; i++ {
			w.Send(int64(round*20+i), i)
		}
		for i := 0; i < 10; i++ {
			if v, ok := w.Recv(int64(round*20 + 19)); !ok || v != i {
				t.Fatalf("round %d, event %d: got %d,%v", round, i, v, ok)
			}
		}
		if _, ok := w.Recv(int64(round*20 + 19)); ok {
			t.Fatal("an empty wire delivered")
		}
	}
	if w.Pending() != 0 {
		t.Fatalf("Pending = %d", w.Pending())
	}
}

func TestLinkSerialization(t *testing.T) {
	l := NewLink[int](4, 1)
	if !l.CanSend(0) {
		t.Fatal("fresh link not sendable")
	}
	l.Send(0, 1)
	for now := int64(1); now < 4; now++ {
		if l.CanSend(now) {
			t.Fatalf("link free at cycle %d during 4-cycle flit", now)
		}
	}
	if !l.CanSend(4) {
		t.Fatal("link still busy at cycle 4")
	}
	// Arrival at send + cyclesPerFlit + latency - 1 = 0 + 4 + 1 - 1 = 4.
	if _, ok := l.Recv(3); ok {
		t.Fatal("flit arrived too early")
	}
	v, ok := l.Recv(4)
	if !ok || v != 1 {
		t.Fatalf("Recv(4) = %d,%v", v, ok)
	}
}

func TestLinkThroughputMatchesWidth(t *testing.T) {
	// A cpf-cycle link must carry exactly n/cpf flits in n cycles.
	l := NewLink[int](4, 1)
	sent := 0
	for now := int64(0); now < 400; now++ {
		if l.CanSend(now) {
			l.Send(now, sent)
			sent++
		}
	}
	if sent != 100 {
		t.Fatalf("sent %d flits in 400 cycles over a 4-cycle link", sent)
	}
}

func TestLinkSendWhileBusyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Send on busy link did not panic")
		}
	}()
	l := NewLink[int](4, 1)
	l.Send(0, 1)
	l.Send(1, 2)
}

func TestLinkMinimumDelay(t *testing.T) {
	l := NewLink[int](1, 0)
	l.Send(7, 1)
	if _, ok := l.Recv(7); ok {
		t.Fatal("same-cycle delivery")
	}
	if _, ok := l.Recv(8); !ok {
		t.Fatal("flit not delivered at +1")
	}
}

func TestLinkSentCounter(t *testing.T) {
	l := NewLink[int](2, 1)
	l.Send(0, 1)
	l.Send(2, 2)
	if l.Sent() != 2 {
		t.Fatalf("Sent = %d", l.Sent())
	}
}

func TestLinkOrderProperty(t *testing.T) {
	// Property: flits arrive in send order with per-flit spacing >= cpf.
	f := func(cpf8 uint8, n8 uint8) bool {
		cpf := int(cpf8%8) + 1
		n := int(n8%50) + 1
		l := NewLink[int](cpf, 1)
		now := int64(0)
		for i := 0; i < n; i++ {
			for !l.CanSend(now) {
				now++
			}
			l.Send(now, i)
		}
		var arrivals []int64
		var values []int
		for now2 := int64(0); now2 < now+int64(cpf)+10; now2++ {
			for {
				v, ok := l.Recv(now2)
				if !ok {
					break
				}
				values = append(values, v)
				arrivals = append(arrivals, now2)
			}
		}
		if len(values) != n {
			return false
		}
		for i := range values {
			if values[i] != i {
				return false
			}
			if i > 0 && arrivals[i]-arrivals[i-1] < int64(cpf) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
