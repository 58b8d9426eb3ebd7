package node

import (
	"testing"

	"nifdy/internal/core"
	"nifdy/internal/nic"
	"nifdy/internal/packet"
	"nifdy/internal/router"
	"nifdy/internal/sim"
	"nifdy/internal/topo"
	"nifdy/internal/topo/mesh"
)

// buildProcs wires a 4x4 mesh with NIFDY NICs and one Proc per node.
func buildProcs(t *testing.T, costs Costs, programs []Program) (*sim.Engine, []*Proc, topo.Network) {
	t.Helper()
	return buildProcsCfg(t, costs, core.Config{}, programs)
}

// buildProcsCfg is buildProcs with the NIFDY units sized by cfg.
func buildProcsCfg(t *testing.T, costs Costs, cfg core.Config, programs []Program) (*sim.Engine, []*Proc, topo.Network) {
	t.Helper()
	net := mesh.New(mesh.Config{Dims: []int{4, 4}})
	eng := sim.New()
	net.RegisterRouters(eng)
	var ids packet.IDSource
	procs := make([]*Proc, net.Nodes())
	for i := 0; i < net.Nodes(); i++ {
		cfg.Node, cfg.IDs = i, &ids
		u := core.New(cfg, net.Iface(i))
		eng.Register(u)
		prog := programs[i%len(programs)]
		procs[i] = NewProc(i, u, costs, prog)
		eng.Register(procs[i])
		procs[i].Start()
	}
	t.Cleanup(func() {
		for _, p := range procs {
			p.Stop()
		}
	})
	return eng, procs, net
}

func idle(p *Proc) {}

func allDone(procs []*Proc) func() bool {
	return func() bool {
		for _, p := range procs {
			if !p.Done() {
				return false
			}
		}
		return true
	}
}

func TestConsumeAdvancesTime(t *testing.T) {
	var finished sim.Cycle = -1
	progs := []Program{func(p *Proc) {
		p.Consume(100)
		finished = p.Now()
	}, idle}
	eng, procs, _ := buildProcs(t, CM5Costs(), progs)
	if !eng.RunUntil(allDone(procs), 1000) {
		t.Fatal("programs did not finish")
	}
	if finished < 100 || finished > 110 {
		t.Fatalf("Consume(100) finished at %d", finished)
	}
}

func TestSendRecvRoundTrip(t *testing.T) {
	var ids packet.IDSource
	var got *packet.Packet
	var recvAt sim.Cycle
	progs := make([]Program, 16)
	for i := range progs {
		progs[i] = idle
	}
	progs[0] = func(p *Proc) {
		pkt := &packet.Packet{ID: ids.Next(), Src: 0, Dst: 5, Words: 8,
			Dialog: packet.NoDialog, Class: packet.Request}
		p.Send(pkt)
	}
	progs[5] = func(p *Proc) {
		got = p.Recv()
		recvAt = p.Now()
	}
	net := mesh.New(mesh.Config{Dims: []int{4, 4}})
	eng := sim.New()
	net.RegisterRouters(eng)
	procs := make([]*Proc, 16)
	for i := 0; i < 16; i++ {
		u := core.New(core.Config{Node: i, IDs: &ids}, net.Iface(i))
		eng.Register(u)
		procs[i] = NewProc(i, u, CM5Costs(), progs[i])
		eng.Register(procs[i])
		procs[i].Start()
	}
	defer func() {
		for _, p := range procs {
			p.Stop()
		}
	}()
	if !eng.RunUntil(allDone(procs), 100000) {
		t.Fatal("round trip did not complete")
	}
	if got == nil || got.Src != 0 {
		t.Fatalf("got %v", got)
	}
	// T_send(40) + injection(32 cycles at cpf 4) + flight + poll/recv
	// overheads: one-way must exceed the send overhead alone and be well
	// under a thousand cycles on an idle 4x4 mesh.
	if recvAt < 70 || recvAt > 1000 {
		t.Fatalf("one-way completion at %d", recvAt)
	}
}

func TestPollCostsCycles(t *testing.T) {
	var polledAt sim.Cycle
	progs := []Program{func(p *Proc) {
		if _, ok := p.Poll(); ok {
			t.Error("poll hit on empty network")
		}
		polledAt = p.Now()
	}, idle}
	eng, procs, _ := buildProcs(t, CM5Costs(), progs)
	eng.RunUntil(allDone(procs), 1000)
	if polledAt < 22 {
		t.Fatalf("empty poll cost %d cycles, want >= 22", polledAt)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	b := NewBarrier(16)
	exits := make([]sim.Cycle, 16)
	progs := make([]Program, 16)
	for i := range progs {
		i := i
		progs[i] = func(p *Proc) {
			p.Consume(sim.Cycle(10 * (i + 1))) // staggered arrivals
			p.Barrier(b, nil)
			exits[i] = p.Now()
		}
	}
	net := mesh.New(mesh.Config{Dims: []int{4, 4}})
	eng := sim.New()
	net.RegisterRouters(eng)
	var ids packet.IDSource
	procs := make([]*Proc, 16)
	for i := 0; i < 16; i++ {
		u := core.New(core.Config{Node: i, IDs: &ids}, net.Iface(i))
		eng.Register(u)
		procs[i] = NewProc(i, u, CM5Costs(), progs[i])
		eng.Register(procs[i])
		procs[i].Start()
	}
	defer func() {
		for _, p := range procs {
			p.Stop()
		}
	}()
	if !eng.RunUntil(allDone(procs), 10000) {
		t.Fatal("barrier never released")
	}
	// No one may exit before the slowest arrival (160 cycles).
	for i, e := range exits {
		if e < 160 {
			t.Fatalf("node %d left the barrier at %d", i, e)
		}
		if e > 170 {
			t.Fatalf("node %d released late at %d", i, e)
		}
	}
}

func TestBarrierServicesArrivals(t *testing.T) {
	// Node 0 parks at a barrier while node 1 sends it packets; the barrier
	// handler must keep accepting so node 1 can finish and join.
	b := NewBarrier(2)
	var handled int
	progs := make([]Program, 16)
	for i := range progs {
		progs[i] = idle
	}
	var ids packet.IDSource
	atBarrier := 0
	progs[0] = func(p *Proc) {
		p.Barrier(b, func(*packet.Packet) { handled++ })
		for handled < 6 {
			if _, ok := p.Poll(); ok {
				handled++
			}
		}
	}
	progs[1] = func(p *Proc) {
		for k := 0; k < 6; k++ {
			// Pool of 2 with one scalar outstanding: the later sends block
			// until node 0 — parked at the barrier — accepts and acks.
			p.Send(&packet.Packet{ID: ids.Next(), Src: 1, Dst: 0, Words: 8,
				Dialog: packet.NoDialog, Class: packet.Request})
		}
		atBarrier = handled
		p.Barrier(b, nil)
	}
	net := mesh.New(mesh.Config{Dims: []int{4, 4}})
	eng := sim.New()
	net.RegisterRouters(eng)
	procs := make([]*Proc, 16)
	for i := 0; i < 16; i++ {
		u := core.New(core.Config{Node: i, B: 2, IDs: &ids}, net.Iface(i))
		eng.Register(u)
		var pr Program
		if i < 2 {
			pr = progs[i]
		} else {
			pr = idle
		}
		procs[i] = NewProc(i, u, CM5Costs(), pr)
		eng.Register(procs[i])
		procs[i].Start()
	}
	defer func() {
		for _, p := range procs {
			p.Stop()
		}
	}()
	done := func() bool { return procs[0].Done() && procs[1].Done() }
	if !eng.RunUntil(done, 200000) {
		t.Fatalf("barrier deadlocked (handled %d packets)", handled)
	}
	if handled != 6 {
		t.Fatalf("handled %d/6 packets", handled)
	}
	// With a pool of 2 and 1-outstanding scalar flow control, node 1 could
	// only finish its sends because the parked node 0 serviced arrivals.
	if atBarrier < 2 {
		t.Fatalf("node 0 handled only %d packets before node 1 reached the barrier", atBarrier)
	}
}

// TestStopUnblocksParkedProc stops a processor asleep inside a primitive that
// nothing will ever complete: a Recv polling an empty network, and a Send
// parked behind a NIC whose pool of 2 a silent receiver keeps full.
func TestStopUnblocksParkedProc(t *testing.T) {
	cases := []struct {
		name string
		cfg  core.Config
		prog Program
		// parked: the processor must be asleep with no wake time (not merely
		// between polls) when it is stopped.
		parked bool
	}{
		{"Recv", core.Config{}, func(p *Proc) { p.Recv() }, false},
		{"stalled Send", core.Config{B: 2}, func(p *Proc) {
			for k := uint64(0); ; k++ {
				p.Send(&packet.Packet{ID: k + 1, Src: 0, Dst: 5, Words: 8,
					Dialog: packet.NoDialog, Class: packet.Request})
			}
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			progs := make([]Program, 16)
			for i := range progs {
				progs[i] = idle
			}
			progs[0] = func(p *Proc) {
				tc.prog(p)
				t.Error("the primitive returned")
			}
			eng, procs, _ := buildProcsCfg(t, CM5Costs(), tc.cfg, progs)
			eng.Run(20000)
			if tc.parked && !procs[0].act.Asleep(sim.Never-1) {
				t.Fatal("the stalled sender is not parked")
			}
			procs[0].Stop()
			if !procs[0].Done() {
				t.Fatal("Stop did not finish the proc")
			}
			eng.Run(10) // must not panic or hang
		})
	}
}

func TestSendBackpressureStalls(t *testing.T) {
	// A NIFDY pool of 2 with an unresponsive receiver: the sender's third
	// Send must stall rather than drop.
	var sent []sim.Cycle
	var ids packet.IDSource
	prog0 := func(p *Proc) {
		for k := 0; k < 4; k++ {
			p.Send(&packet.Packet{ID: ids.Next(), Src: 0, Dst: 5, Words: 8,
				Dialog: packet.NoDialog, Class: packet.Request})
			sent = append(sent, p.Now())
		}
	}
	net := mesh.New(mesh.Config{Dims: []int{4, 4}})
	eng := sim.New()
	net.RegisterRouters(eng)
	procs := make([]*Proc, 16)
	for i := 0; i < 16; i++ {
		u := core.New(core.Config{Node: i, B: 2, IDs: &ids}, net.Iface(i))
		eng.Register(u)
		pr := idle
		if i == 0 {
			pr = prog0
		}
		procs[i] = NewProc(i, u, CM5Costs(), pr)
		eng.Register(procs[i])
		procs[i].Start()
	}
	defer func() {
		for _, p := range procs {
			p.Stop()
		}
	}()
	eng.Run(20000)
	// Node 5 never polls; only 1 packet can be outstanding and 2 pooled, so
	// the 4th Send must still be blocked.
	if procs[0].Done() {
		t.Fatalf("sender finished despite unresponsive receiver (sends at %v)", sent)
	}
	if len(sent) < 2 {
		t.Fatalf("only %d sends completed", len(sent))
	}
}

func TestCM5CostsValues(t *testing.T) {
	c := CM5Costs()
	if c.Send != 40 || c.Recv != 60 || c.Poll != 22 {
		t.Fatalf("CM5Costs = %+v", c)
	}
}

func TestReorderPenaltyApplied(t *testing.T) {
	// Two identical deliveries, one tagged as needing software reorder: the
	// tagged one must cost more receive time.
	recvTime := func(tag int) sim.Cycle {
		var ids packet.IDSource
		var dur sim.Cycle
		net := mesh.New(mesh.Config{Dims: []int{4, 4}})
		eng := sim.New()
		net.RegisterRouters(eng)
		procs := make([]*Proc, 16)
		for i := 0; i < 16; i++ {
			i := i
			u := core.New(core.Config{Node: i, IDs: &ids}, net.Iface(i))
			eng.Register(u)
			var pr Program
			switch i {
			case 0:
				pr = func(p *Proc) {
					pk := &packet.Packet{ID: ids.Next(), Src: 0, Dst: 1, Words: 8,
						Dialog: packet.NoDialog, Class: packet.Request}
					pk.Meta.Tag = tag
					p.Send(pk)
				}
			case 1:
				pr = func(p *Proc) {
					// Poll until the packet is at the NIC, so the timed
					// Recv below is a hit: pure receive overhead.
					for !p.HasPending() {
						p.Consume(1)
					}
					start := p.Now()
					p.Recv()
					dur = p.Now() - start
				}
			default:
				pr = idle
			}
			procs[i] = NewProc(i, u, CM5Costs(), pr)
			eng.Register(procs[i])
			procs[i].Start()
		}
		defer func() {
			for _, p := range procs {
				p.Stop()
			}
		}()
		eng.RunUntil(func() bool { return procs[1].Done() }, 100000)
		return dur
	}
	plain := recvTime(0)
	tagged := recvTime(TagNeedsReorder)
	if tagged <= plain {
		t.Fatalf("reorder penalty not applied: %d vs %d", tagged, plain)
	}
}

func TestProcsWithBasicNIC(t *testing.T) {
	// The Proc API must work over the baseline NICs too.
	var ids packet.IDSource
	net := mesh.New(mesh.Config{Dims: []int{4, 4}})
	eng := sim.New()
	net.RegisterRouters(eng)
	var got int
	procs := make([]*Proc, 16)
	for i := 0; i < 16; i++ {
		i := i
		b := nic.NewBasic(nic.BasicConfig{Node: i, OutBuf: 2, ArrBuf: 2}, net.Iface(i))
		eng.Register(b)
		var pr Program
		switch i {
		case 0:
			pr = func(p *Proc) {
				for k := 0; k < 5; k++ {
					p.Send(&packet.Packet{ID: ids.Next(), Src: 0, Dst: 9, Words: 8,
						Dialog: packet.NoDialog, Class: packet.Request})
				}
			}
		case 9:
			pr = func(p *Proc) {
				for got < 5 {
					if _, ok := p.Poll(); ok {
						got++
					}
				}
			}
		default:
			pr = idle
		}
		procs[i] = NewProc(i, b, CM5Costs(), pr)
		eng.Register(procs[i])
		procs[i].Start()
	}
	defer func() {
		for _, p := range procs {
			p.Stop()
		}
	}()
	if !eng.RunUntil(func() bool { return procs[9].Done() }, 200000) {
		t.Fatalf("basic NIC flow incomplete: got %d", got)
	}
}

var _ = router.NewChannel // keep import for potential helpers

func TestRecvOrStops(t *testing.T) {
	stop := false
	var gotPkt bool
	progs := []Program{func(p *Proc) {
		_, ok := p.RecvOr(func() bool { return stop })
		gotPkt = ok
	}, idle}
	eng, procs, _ := buildProcs(t, CM5Costs(), progs)
	eng.Run(200)
	if procs[0].Done() {
		t.Fatal("RecvOr returned early")
	}
	stop = true
	if !eng.RunUntil(func() bool { return procs[0].Done() }, 5000) {
		t.Fatal("RecvOr did not observe stop")
	}
	if gotPkt {
		t.Fatal("RecvOr claimed a packet on an empty network")
	}
}

func TestRecvOrReturnsPacket(t *testing.T) {
	var ids packet.IDSource
	var got *packet.Packet
	progs := make([]Program, 16)
	for i := range progs {
		progs[i] = idle
	}
	progs[0] = func(p *Proc) {
		p.Send(&packet.Packet{ID: ids.Next(), Src: 0, Dst: 1, Words: 8,
			Dialog: packet.NoDialog, Class: packet.Request})
	}
	progs[1] = func(p *Proc) {
		got, _ = p.RecvOr(func() bool { return false })
	}
	eng, procs, _ := buildProcs(t, CM5Costs(), progs)
	if !eng.RunUntil(func() bool { return procs[1].Done() }, 100000) {
		t.Fatal("RecvOr never got the packet")
	}
	if got == nil || got.Src != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestIDAndHasPending(t *testing.T) {
	progs := []Program{func(p *Proc) {
		if p.ID() != p.NIC().Node() {
			t.Errorf("ID %d != NIC node %d", p.ID(), p.NIC().Node())
		}
		if p.HasPending() {
			t.Error("HasPending on empty network")
		}
	}, idle}
	eng, procs, _ := buildProcs(t, CM5Costs(), progs)
	eng.RunUntil(allDone(procs), 1000)
}

func TestDoubleStartPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double Start did not panic")
		}
	}()
	net := mesh.New(mesh.Config{Dims: []int{4, 4}})
	var ids packet.IDSource
	u := core.New(core.Config{Node: 0, IDs: &ids}, net.Iface(0))
	p := NewProc(0, u, CM5Costs(), idle)
	p.Start()
	defer p.Stop()
	p.Start()
}
