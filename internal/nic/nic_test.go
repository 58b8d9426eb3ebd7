package nic

import (
	"reflect"
	"testing"

	"nifdy/internal/packet"
	"nifdy/internal/router"
	"nifdy/internal/sim"
	"nifdy/internal/topo/mesh"
)

func build(t *testing.T, outBuf, arrBuf int) (*sim.Engine, []*Basic, *mesh.Mesh) {
	t.Helper()
	m := mesh.New(mesh.Config{Dims: []int{4, 4}})
	eng := sim.New()
	m.RegisterRouters(eng)
	nics := make([]*Basic, 16)
	for i := range nics {
		nics[i] = NewBasic(BasicConfig{Node: i, OutBuf: outBuf, ArrBuf: arrBuf}, m.Iface(i))
		eng.Register(nics[i])
	}
	return eng, nics, m
}

func pkt(id uint64, src, dst int) *packet.Packet {
	return &packet.Packet{ID: id, Src: src, Dst: dst, Words: 8,
		Class: packet.Request, Dialog: packet.NoDialog}
}

func TestBasicDelivery(t *testing.T) {
	eng, nics, _ := build(t, 2, 2)
	if !nics[0].TrySend(0, pkt(1, 0, 15)) {
		t.Fatal("TrySend rejected")
	}
	var got *packet.Packet
	ok := eng.RunUntil(func() bool {
		p, k := nics[15].Recv(eng.Now())
		if k {
			got = p
		}
		return got != nil
	}, 100000)
	if !ok || got.ID != 1 {
		t.Fatalf("delivery failed: %v", got)
	}
	if got.AcceptedAt == 0 {
		t.Fatal("AcceptedAt not stamped")
	}
}

func TestBasicOutBufCapacity(t *testing.T) {
	_, nics, _ := build(t, 2, 2)
	if !nics[0].TrySend(0, pkt(1, 0, 1)) || !nics[0].TrySend(0, pkt(2, 0, 1)) {
		t.Fatal("sends under capacity rejected")
	}
	if nics[0].TrySend(0, pkt(3, 0, 1)) {
		t.Fatal("send over capacity accepted")
	}
}

func TestBasicHeadOfLineBlocking(t *testing.T) {
	// The FIFO head occupies the class slot; a same-class packet behind it
	// cannot overtake — the behaviour NIFDY's rank/eligibility pool removes.
	eng, nics, _ := build(t, 4, 4)
	nics[0].TrySend(0, pkt(1, 0, 15)) // far destination
	nics[0].TrySend(0, pkt(2, 0, 1))  // near destination, queued behind
	var first uint64
	eng.RunUntil(func() bool {
		for n := range nics {
			if p, ok := nics[n].Recv(eng.Now()); ok && first == 0 {
				first = p.ID
			}
		}
		return first != 0
	}, 100000)
	// Even though node 1 is one hop away, packet 1 was injected first; with
	// a single VC per class on the mesh, packet 2 follows it into the
	// fabric. The near packet arrives first at its own node, but injection
	// order is FIFO: packet 1 must have been injected first.
	if nics[0].Stats().Injected < 2 {
		t.Fatal("both packets should inject")
	}
	if first == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestBasicArrBufBackpressure(t *testing.T) {
	eng, nics, m := build(t, 1, 2)
	// Flood node 15 without ever receiving.
	sent := 0
	for cyc := 0; cyc < 30000; cyc++ {
		if sent < 20 && nics[0].TrySend(eng.Now(), pkt(uint64(sent+1), 0, 15)) {
			sent++
		}
		eng.Step()
	}
	if sent == 20 {
		t.Fatal("no backpressure: all 20 packets absorbed by a non-receiving node")
	}
	if nics[15].Pending() > 2 {
		t.Fatalf("arrivals queue overflowed: %d", nics[15].Pending())
	}
	// Drain: everything still arrives.
	got := 0
	ok := eng.RunUntil(func() bool {
		if sent < 20 && nics[0].TrySend(eng.Now(), pkt(uint64(sent+1), 0, 15)) {
			sent++
		}
		if _, k := nics[15].Recv(eng.Now()); k {
			got++
		}
		return got == 20
	}, 500000)
	if !ok {
		t.Fatalf("drained %d/20 (fabric holds %d flits)", got, m.BufferedFlits())
	}
}

func TestBasicIdle(t *testing.T) {
	eng, nics, _ := build(t, 2, 2)
	if !nics[0].Idle() {
		t.Fatal("fresh NIC not idle")
	}
	nics[0].TrySend(0, pkt(1, 0, 15))
	if nics[0].Idle() {
		t.Fatal("NIC with queued packet reports idle")
	}
	eng.RunUntil(func() bool {
		_, ok := nics[15].Recv(eng.Now())
		return ok
	}, 100000)
	eng.Run(100)
	if !nics[0].Idle() || !nics[15].Idle() {
		t.Fatal("NICs not idle after drain")
	}
}

func TestBasicStats(t *testing.T) {
	eng, nics, _ := build(t, 2, 2)
	nics[0].TrySend(0, pkt(1, 0, 15))
	eng.RunUntil(func() bool {
		_, ok := nics[15].Recv(eng.Now())
		return ok
	}, 100000)
	if s := nics[0].Stats(); s.Sent != 1 || s.Injected != 1 {
		t.Fatalf("sender stats %+v", s)
	}
	if s := nics[15].Stats(); s.Accepted != 1 {
		t.Fatalf("receiver stats %+v", s)
	}
}

func TestHooksFire(t *testing.T) {
	var sends, accepts int
	h := Hooks{
		OnSend:   func(*packet.Packet) { sends++ },
		OnAccept: func(*packet.Packet) { accepts++ },
	}
	m := mesh.New(mesh.Config{Dims: []int{4, 4}})
	eng := sim.New()
	m.RegisterRouters(eng)
	nics := make([]*Basic, 16)
	for i := range nics {
		nics[i] = NewBasic(BasicConfig{Node: i, OutBuf: 2, ArrBuf: 2, Hooks: h}, m.Iface(i))
		eng.Register(nics[i])
	}
	nics[0].TrySend(0, pkt(1, 0, 15))
	eng.RunUntil(func() bool {
		_, ok := nics[15].Recv(eng.Now())
		return ok
	}, 100000)
	if sends != 1 || accepts != 1 {
		t.Fatalf("hooks: sends=%d accepts=%d", sends, accepts)
	}
}

func TestNilHooksSafe(t *testing.T) {
	var h Hooks
	h.Send(pkt(1, 0, 1))   // must not panic
	h.Accept(pkt(1, 0, 1)) // must not panic
}

func TestMinimumBuffers(t *testing.T) {
	m := mesh.New(mesh.Config{Dims: []int{4, 4}})
	b := NewBasic(BasicConfig{Node: 0}, m.Iface(0))
	if !b.TrySend(0, pkt(1, 0, 1)) {
		t.Fatal("OutBuf clamped below 1")
	}
}

// TestRoomEdgeWakesProc is the second half of the ObserveProc contract for
// the two FIFO NICs: fill out until TrySend is refused, step until a packet
// leaves it, and the observing activity must have been woken by the Tick of
// that very cycle — and be untouched until then. Three rounds, so the edge is
// seen with the fabric idle, busy, and (DCQCN) pacing.
func TestRoomEdgeWakesProc(t *testing.T) {
	kinds := []struct {
		name string
		mk   func(ifc router.Port) (n NIC, room func() bool)
	}{
		{"Basic", func(ifc router.Port) (NIC, func() bool) {
			b := NewBasic(BasicConfig{OutBuf: 2, ArrBuf: 2}, ifc)
			return b, func() bool { return b.out.Len() < 2 }
		}},
		{"DCQCN", func(ifc router.Port) (NIC, func() bool) {
			d := NewDCQCN(DCQCNConfig{OutBuf: 2, ArrBuf: 2, CPF: 2}, ifc)
			return d, func() bool { return d.out.Len() < 2 }
		}},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			m := mesh.New(mesh.Config{Dims: []int{4, 4}})
			eng := sim.New()
			m.RegisterRouters(eng)
			n, room := k.mk(m.Iface(0))
			eng.Register(n)
			var proc sim.Activity
			n.ObserveProc(&proc)
			id := uint64(0)
			for round := 0; round < 3; round++ {
				for id++; n.TrySend(eng.Now(), pkt(id, 0, 15)); id++ {
				}
				if room() {
					t.Fatal("TrySend refused with room in the FIFO")
				}
				proc.Sleep(sim.Never)
				for !room() {
					if !proc.Asleep(eng.Now()) {
						t.Fatalf("round %d: processor woken at cycle %d with the FIFO still full", round, eng.Now()-1)
					}
					if eng.Now() > 10000 {
						t.Fatalf("round %d: the FIFO never drained", round)
					}
					eng.Step()
				}
				if proc.Asleep(eng.Now() - 1) {
					t.Fatalf("round %d: room freed in cycle %d and the processor was not woken in it", round, eng.Now()-1)
				}
			}
		})
	}
}

// TestStatsAddSumsEveryField sets each counter to a distinct value by
// reflection, so a counter added to Stats and not to Add fails here.
func TestStatsAddSumsEveryField(t *testing.T) {
	var a, b Stats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetInt(int64(i + 1))
		bv.Field(i).SetInt(int64(100 * (i + 1)))
	}
	a.Add(&b)
	for i := 0; i < av.NumField(); i++ {
		if got, want := av.Field(i).Int(), int64(101*(i+1)); got != want {
			t.Errorf("%s = %d after Add, want %d", av.Type().Field(i).Name, got, want)
		}
	}
}
