package flow

import (
	"testing"

	"nifdy/internal/packet"
	"nifdy/internal/sim"
	"nifdy/internal/topo"
)

// driver ticks a node's port like a minimal NIC: it injects a scripted list
// of packets as slots free up and records every delivery cycle.
type driver struct {
	pt      *Port
	sends   []*packet.Packet
	got     []*packet.Packet
	gotAt   []sim.Cycle
	deliver bool
}

func (d *driver) Tick(now sim.Cycle) {
	d.pt.Pump(now)
	for len(d.sends) > 0 && d.pt.CanAccept(d.sends[0].Class) {
		p := d.sends[0]
		d.sends = d.sends[1:]
		d.pt.StartSend(now, p)
	}
	if !d.deliver {
		return
	}
	for {
		p, ok := d.pt.Deliver(now, nil)
		if !ok {
			break
		}
		d.got = append(d.got, p)
		d.gotAt = append(d.gotAt, now)
	}
}

func mkPacket(src, dst, words int, c packet.Class) *packet.Packet {
	return &packet.Packet{Src: src, Dst: dst, Words: int32(words), Class: c, Kind: packet.Data}
}

func build(t *testing.T, cfg Config) (*sim.Engine, *Fabric, []*driver) {
	t.Helper()
	e := sim.New()
	f := New(cfg)
	f.RegisterRoutersSharded(e, f.Partition(1))
	ds := make([]*driver, cfg.Nodes)
	for n := range ds {
		ds[n] = &driver{pt: f.Iface(n).(*Port), deliver: true}
		e.Register(ds[n])
	}
	return e, f, ds
}

// TestPointToPoint checks the uncontended latency arithmetic: serialization
// at the access link plus the fixed pipe.
func TestPointToPoint(t *testing.T) {
	e, _, ds := build(t, Config{Characteristics: topo.Characteristics{Nodes: 4, CPF: 4, HopLat: 6, AvgHops: 2}})
	p := mkPacket(0, 1, 8, packet.Request)
	ds[0].sends = append(ds[0].sends, p)
	e.Run(200)
	if len(ds[1].got) != 1 || ds[1].got[0] != p {
		t.Fatalf("dst got %d packets, want the one sent", len(ds[1].got))
	}
	// Injected at cycle 0, activated at the cycle-1 solver step, drains 8
	// flits at 1/4 flit/cycle (32 cycles), rides a 12-cycle pipe.
	if at := ds[1].gotAt[0]; at != 45 {
		t.Errorf("delivery at cycle %d, want 45", at)
	}
}

// TestFairShare checks that two flows into one destination each get half
// the destination link: both take twice the solo drain time.
func TestFairShare(t *testing.T) {
	e, _, ds := build(t, Config{Characteristics: topo.Characteristics{Nodes: 4, CPF: 4, HopLat: 6, AvgHops: 2}})
	a := mkPacket(0, 2, 8, packet.Request)
	b := mkPacket(1, 2, 8, packet.Request)
	ds[0].sends = append(ds[0].sends, a)
	ds[1].sends = append(ds[1].sends, b)
	e.Run(300)
	if len(ds[2].got) != 2 {
		t.Fatalf("dst got %d packets, want 2", len(ds[2].got))
	}
	// Shared drain: 8 flits at 1/8 flit/cycle = 64 cycles from activation,
	// then the 12-cycle pipe; both land the same cycle and deliver in
	// admission (node) order.
	if ds[2].got[0] != a || ds[2].got[1] != b {
		t.Errorf("delivery order not admission order")
	}
	if at := ds[2].gotAt[0]; at != 77 {
		t.Errorf("first delivery at cycle %d, want 77", at)
	}
}

// TestDestinationStall checks the backpressure chain: a destination that
// never drains its arrivals parks inbound packets, trips the fabric-side
// cap, and stalls later flows at their sources with busy injection slots.
func TestDestinationStall(t *testing.T) {
	e, f, ds := build(t, Config{Characteristics: topo.Characteristics{Nodes: 6, CPF: 4, HopLat: 6, AvgHops: 2}, DstCapFlits: 16})
	ds[5].deliver = false // the congested destination never pulls arrivals
	for n := 0; n < 4; n++ {
		ds[n].sends = append(ds[n].sends,
			mkPacket(n, 5, 8, packet.Request), mkPacket(n, 5, 8, packet.Request))
	}
	e.Run(3000)
	// Arrival buffer holds one 8-flit packet; the 16-flit fabric cap parks
	// two more; every other flow is stalled at rate zero, so at least one
	// source still has its first-or-second send occupying the slot.
	stalled := 0
	for n := 0; n < 4; n++ {
		if !ds[n].pt.CanAccept(packet.Request) {
			stalled++
		}
	}
	if stalled == 0 {
		t.Fatalf("no source stalled behind the congested destination")
	}
	if got := len(ds[5].got); got != 0 {
		t.Fatalf("non-delivering destination got %d packets", got)
	}
	// Release: let the destination drain and everything completes.
	ds[5].deliver = true
	e.Run(5000)
	if got := len(ds[5].got); got != 8 {
		t.Fatalf("after release destination got %d packets, want 8", got)
	}
	inj, del, drop := f.PacketCounters()
	if inj != 8 || del != 8 || drop != 0 {
		t.Fatalf("fabric books inj=%d del=%d drop=%d, want 8/8/0", inj, del, drop)
	}
	if f.BufferedFlits() != 0 {
		t.Fatalf("%d flits left in an idle fabric", f.BufferedFlits())
	}
}

// TestClassIsolation checks that a stalled Request destination does not
// block Reply traffic to the same node.
func TestClassIsolation(t *testing.T) {
	e, _, ds := build(t, Config{Characteristics: topo.Characteristics{Nodes: 4, CPF: 4, HopLat: 6, AvgHops: 2}, DstCapFlits: 8})
	ds[3].deliver = false
	for i := 0; i < 6; i++ {
		ds[0].sends = append(ds[0].sends, mkPacket(0, 3, 8, packet.Request))
	}
	e.Run(2000)
	// Requests have filled the arrival buffer and the fabric cap; now a
	// Reply must still get through to the port.
	ds[1].sends = append(ds[1].sends, mkPacket(1, 3, 1, packet.Reply))
	e.Run(2000)
	if ds[3].pt.arrN[packet.Reply] == 0 {
		t.Fatalf("reply did not reach a node whose request class is stalled")
	}
}

// TestPerPairOrder checks in-order delivery within a (src, dst, class)
// stream under cross-traffic.
func TestPerPairOrder(t *testing.T) {
	e, _, ds := build(t, Config{Characteristics: topo.Characteristics{Nodes: 8, CPF: 4, HopLat: 6, AvgHops: 2, BisectionFPC: 0.5}})
	var want []*packet.Packet
	for i := 0; i < 5; i++ {
		p := mkPacket(0, 7, 8, packet.Request)
		p.Seq = int32(i)
		want = append(want, p)
		ds[0].sends = append(ds[0].sends, p)
		// Cross-traffic sharing the destination and the bisection.
		ds[1].sends = append(ds[1].sends, mkPacket(1, 7, 8, packet.Request))
		ds[2].sends = append(ds[2].sends, mkPacket(2, 6, 8, packet.Request))
	}
	e.Run(8000)
	seen := 0
	for _, p := range ds[7].got {
		if p.Src != 0 {
			continue
		}
		if int(p.Seq) != seen {
			t.Fatalf("pair stream out of order: got seq %d, want %d", p.Seq, seen)
		}
		seen++
	}
	if seen != len(want) {
		t.Fatalf("dst saw %d of %d packets from src 0", seen, len(want))
	}
}
