package flow

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"nifdy/internal/packet"
	"nifdy/internal/rng"
	"nifdy/internal/sim"
	"nifdy/internal/topo"
)

// pump is a closed-loop load generator on one port, the shape of the
// benchmark's (bench/pump.go): a fixed pool of packets, each re-sent to a
// uniform random destination as soon as a delivery hands one back and the
// Request slot is free. Sizes are drawn from 1..8 words (an arrival buffer holds 8 flits) so the flows that
// start together at cycle 0 do not drain, and restart, in lockstep for ever.
// It follows the NIC idle contract, so the engine fast-forwards between
// solver events.
type pump struct {
	pt          *Port
	node, nodes int
	r           *rng.Source
	pool        []*packet.Packet
}

// newPumps registers one pump per node. Each starts at a random cycle below
// spread: flows admitted in the same cycle into one share class carry tags
// from a handful of sizes and would drain in as many giant batches.
func newPumps(e *sim.Engine, f *Fabric, seed uint64, spread int) {
	const perNode = 4
	n := f.Nodes()
	pumps := make([]pump, n)
	pkts := make([]packet.Packet, n*perNode)
	for i := range pumps {
		p := &pumps[i]
		*p = pump{pt: f.Iface(i).(*Port), node: i, nodes: n, r: rng.NewStream(seed, uint64(i))}
		for j := 0; j < perNode; j++ {
			p.pool = append(p.pool, &pkts[i*perNode+j])
		}
		p.pt.Activity().Sleep(sim.Cycle(p.r.Intn(spread)))
		e.Register(p)
	}
}

func (p *pump) Tick(now sim.Cycle) {
	progress := false
	for {
		pk, ok := p.pt.Deliver(now, nil)
		if !ok {
			break
		}
		if len(p.pool) < cap(p.pool) {
			p.pool = append(p.pool, pk)
		}
		progress = true
	}
	for len(p.pool) > 0 && p.pt.CanAccept(packet.Request) {
		pk := p.pool[len(p.pool)-1]
		p.pool = p.pool[:len(p.pool)-1]
		dst := p.r.Intn(p.nodes - 1)
		if dst >= p.node {
			dst++
		}
		*pk = packet.Packet{Src: p.node, Dst: dst, Words: int32(1 + p.r.Intn(8)), Class: packet.Request, Kind: packet.Data}
		p.pt.StartSend(now, pk)
		progress = true
	}
	if p.pt.Quiet() {
		p.pt.Activity().Sleep(p.pt.NextArrivalAt())
	} else if !progress {
		p.pt.Activity().Sleep(p.pt.BlockedBound(now))
	}
}

func (p *pump) Activity() *sim.Activity { return p.pt.Activity() }

// workPerEvent runs a pumped x-by-x flow mesh to steady state and reports,
// over a measured window, the solver's per-flow operations and class-heap
// entry moves per event, the engine's timers filed and its ticks per packet
// delivered.
func workPerEvent(x int, warm, window sim.Cycle) (ratio, moves float64, st SolverStats, timers int64, ticksPerPkt float64) {
	e := sim.New()
	f := New(MeshConfig(x, x, topo.IfaceOptions{}))
	f.RegisterRoutersSharded(e, f.Partition(1))
	newPumps(e, f, 1995, 1024)
	e.Run(warm)
	before, eBefore, dBefore := f.SolverStats(), e.Stats(), f.delivered()
	e.Run(window)
	st, est := f.SolverStats(), e.Stats()
	work, events := st.Work()-before.Work(), st.Events()-before.Events()
	ticksPerPkt = float64(est.Ticks-eBefore.Ticks) / float64(f.delivered()-dBefore)
	moves = float64(st.HeapMoves-before.HeapMoves) / float64(events)
	return float64(work) / float64(events), moves, st, est.TimersFiled - eBefore.TimersFiled, ticksPerPkt
}

// delivered counts the packets every port has handed to its owner.
func (f *Fabric) delivered() (n int64) {
	for i := range f.ports {
		n += f.ports[i].delivered
	}
	return n
}

// maxWorkPerEvent is the committed ceiling on solver operations (remainders
// advanced + flows re-rated + wheel and share-class operations) per event
// (arrival, departure, stall edge). At this load nearly every flow rides a
// share class: an arrival re-rates and advances the new flow and joins it,
// and its departure is a leave, so a flow's two events cost about four
// operations; census flips and local flows add the rest. Measured 2.00 at
// 64×64 and 1.99 at 128×128. A solver that visits the flow set per step
// reads in the hundreds here, and grows with the mesh.
const maxWorkPerEvent = 3

// maxHeapMovesPerEvent is the committed ceiling on class-heap entry moves
// (SolverStats.HeapMoves) per event. Every arrival here joins its class with
// its whole length as remainder, so it rides a remainder FIFO: the heap holds
// only flows that rejoin with a partial remainder after a flip. Measured 0.000
// at 64×64 and at 128×128; with every member in the heap the sifts moved
// 2.49 and 3.05 entries per event, growing with the mesh.
const maxHeapMovesPerEvent = 0.25

// maxTicksPerPacket is the committed ceiling on pump ticks per packet
// delivered. A packet's two ends each wake a pump once — retire its sender,
// which refills the slot in the same tick, and the landing its receiver — so
// the floor is about 2 (ends that share a cycle and a node share a tick).
// Measured 1.996 at 64×64 and 1.999 at 128×128; pumps kept awake for the
// tick after every send and delivery read 3.59 and 3.71.
const maxTicksPerPacket = 2.5

// TestSolverWorkPerEvent is the complexity gate, independent of wall clock:
// on pumped 64×64 and 128×128 meshes (stride 16) at the same per-node load
// the solver's work per event is under the committed constant and the same at
// both sizes, and its class joins and drains shift (next to) no heap
// entries. The engine's half of the property: a pump blocked on its busy
// slot parks until retire wakes it and a quiescent one until an arrival
// does, so past the pumps' staggered starts the engine files no timer at all
// (sleeping to the flow's drain bound filed 88,733 and 182,168 here), and a
// send or a delivery parks the pump too, so it ticks only on its packets'
// ends.
func TestSolverWorkPerEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 16k-node mesh")
	}
	small, moves64, st64, timers64, ticks64 := workPerEvent(64, 6000, 6000)
	large, moves128, st128, timers128, ticks128 := workPerEvent(128, 6000, 6000)
	t.Logf("64x64: %.2f ops/event, %.3f heap moves/event, %.2f ticks/packet %+v", small, moves64, ticks64, st64)
	t.Logf("128x128: %.2f ops/event, %.3f heap moves/event, %.2f ticks/packet %+v", large, moves128, ticks128, st128)
	if timers64 != 0 || timers128 != 0 {
		t.Errorf("engine filed %d and %d timers on the pumped meshes, want none", timers64, timers128)
	}
	for _, r := range []float64{ticks64, ticks128} {
		if r > maxTicksPerPacket {
			t.Errorf("pumps tick %.2f times per packet delivered, committed ceiling %.1f", r, maxTicksPerPacket)
		}
	}
	for _, r := range []float64{moves64, moves128} {
		if r > maxHeapMovesPerEvent {
			t.Errorf("class heaps move %.3f entries per event, committed ceiling %.2f", r, maxHeapMovesPerEvent)
		}
	}
	for _, r := range []float64{small, large} {
		if r > maxWorkPerEvent {
			t.Errorf("solver spends %.2f operations per event, committed ceiling %d", r, maxWorkPerEvent)
		}
	}
	if d := large / small; d > 1.1 || d < 1/1.1 {
		t.Errorf("solver work per event depends on size: %.2f at 64x64, %.2f at 128x128", small, large)
	}
}

// TestDirtyDedup pins the duplicate-dirty fix: a port lists its node once per
// packet it pops, the drain hands each node to promote once, and that loses
// nothing because a repeated promote is a no-op.
func TestDirtyDedup(t *testing.T) {
	f := New(Config{Nodes: 8})
	var got []int32
	visit := func(v int32) { got = append(got, v) }
	f.dirty = []int32{1, 1, 1, 4, 6, 6}
	f.forEachDirty(visit)
	if want := []int32{1, 4, 6}; !slices.Equal(got, want) {
		t.Errorf("visited %v, want %v", got, want)
	}

	// A destination with three packets parked behind a full arrival buffer;
	// its NIC pops two arrivals in one tick.
	e, f, ds := build(t, Config{Nodes: 4, CPF: 4, HopCycles: 6, AvgHops: 2, ArrCapFlits: 8, DstCapFlits: 64})
	ds[3].deliver = false
	for i := 0; i < 5; i++ {
		ds[i%3].sends = append(ds[i%3].sends, mkPacket(i%3, 3, 4, packet.Request))
	}
	e.Run(1000)
	pt := &f.ports[3]
	parked := func() int { return pt.q[packet.Request].Len() - int(pt.arrN[packet.Request]) }
	if got := parked(); got != 3 {
		t.Fatalf("%d packets parked, want 3", got)
	}
	for i := 0; i < 2; i++ {
		if _, ok := ds[3].pt.Deliver(e.Now(), nil); !ok {
			t.Fatal("arrival buffer empty")
		}
	}
	if got := f.dirty; !slices.Equal(got, []int32{3, 3}) {
		t.Fatalf("dirty list %v, want the node once per pop", got)
	}
	if !f.promote(e.Now(), 3) {
		t.Fatal("first promote moved nothing into the freed space")
	}
	left, arr := parked(), pt.arrFlits[packet.Request]
	marked := len(f.rateDirty)
	if f.promote(e.Now(), 3) {
		t.Error("second promote of the same node reported progress")
	}
	if parked() != left || pt.arrFlits[packet.Request] != arr || len(f.rateDirty) != marked {
		t.Error("second promote of the same node changed state")
	}
}

// parkMode is how wakeEdge's node 0 waits for its slot: it polls (re-waking
// itself every cycle, so what it reports is the retire cycle itself), it
// makes no Sleep call at all and leaves the latch where StartSend parked it,
// or it parks on BlockedBound in the tick that stages its send or once the
// solver has made the flow live (polling until then).
type parkMode int

const (
	poll parkMode = iota
	parkSend
	parkStaged
	parkLive
)

// wakeEdge sends a 16-flit packet from node 0 and a 4-flit one from node 1
// to node 3 at cycle 0, so node 0's flow speeds up when node 1's retires,
// and reports what node 0 saw.
func wakeEdge(t *testing.T, cfg Config, mode parkMode) (r wakeRun) {
	e := sim.New()
	f := New(cfg)
	f.RegisterRoutersSharded(e, f.Partition(1))
	pt := f.Iface(0).(*Port)
	parked := false
	e.Register(idle{pt.Activity(), func(now sim.Cycle) {
		if parked {
			r.parkedTicks++
		}
		switch {
		case now == 0:
			pt.StartSend(now, mkPacket(0, 3, 16, packet.Request))
			f.Iface(1).StartSend(now, mkPacket(1, 3, 4, packet.Request))
		case pt.CanAccept(packet.Request):
			if r.freed == 0 {
				r.freed = now
			}
			pt.Activity().Sleep(sim.Never)
			return
		}
		if b := pt.BlockedBound(now); b != sim.Never {
			t.Fatalf("cycle %d: BlockedBound %d, want Never", now, b)
		}
		live := f.flows[flowID(0, int(packet.Request))].pkt != nil
		switch {
		case mode == parkSend:
			parked = true
		case mode == parkStaged || mode == parkLive && live:
			parked = true
			pt.Activity().Sleep(pt.BlockedBound(now))
		default:
			pt.Activity().WakeAt(now + 1)
		}
	}})
	e.Run(1000)
	r.timers, r.joins = e.Stats().TimersFiled, f.SolverStats().ClassJoins
	return r
}

// wakeRun is what wakeEdge's node 0 saw: the cycle its slot first showed
// free, its ticks while parked, the engine's timers filed and the solver's
// class joins.
type wakeRun struct {
	freed         sim.Cycle
	parkedTicks   int
	timers, joins int64
}

// TestWakeEdges is the contract BlockedBound = Never rests on: a NIC parked
// on a busy slot sees it free on the exact retire cycle, because retire
// wakes it — whether it parked before the solver activated the send, or on a
// live flow that held its own drain deadline (local) or rode a share class,
// and although the flow's rate rose after it parked. It is never visited
// while it waits, and no timer is filed for it. An owner that only starts a
// send and asks for nothing is parked by StartSend itself, the same way.
func TestWakeEdges(t *testing.T) {
	for name, cfg := range map[string]Config{
		"local": {Nodes: 4, CPF: 4, HopCycles: 6, AvgHops: 2},
		"class": {Nodes: 4, CPF: 4, HopCycles: 6, AvgHops: 2, FabricFPC: 0.2},
	} {
		want := wakeEdge(t, cfg, poll)
		if want.freed < 64 || (want.joins > 0) != (name == "class") {
			t.Fatalf("%s: flow retires at %d after %d class joins: not the scenario named", name, want.freed, want.joins)
		}
		t.Logf("%s: flow retires at %d after %d class joins", name, want.freed, want.joins)
		for _, mode := range []parkMode{parkSend, parkStaged, parkLive} {
			got := wakeEdge(t, cfg, mode)
			if got.freed != want.freed {
				t.Errorf("%s/%d: parked NIC saw its slot free at cycle %d, the flow retired at %d", name, mode, got.freed, want.freed)
			}
			if got.parkedTicks != 1 || got.timers != 0 {
				t.Errorf("%s/%d: parked NIC ticked %d times (want 1, on the retire cycle), %d timers filed (want 0)",
					name, mode, got.parkedTicks, got.timers)
			}
		}
	}
}

// idle is an IdleTicker from an Activity and a function.
type idle struct {
	act  *sim.Activity
	tick func(now sim.Cycle)
}

func (i idle) Tick(now sim.Cycle)      { i.tick(now) }
func (i idle) Activity() *sim.Activity { return i.act }

// BenchmarkSolverStep measures one solver step at two flow populations two
// orders of magnitude apart with the same event rate: both fabrics have the
// same aggregate capacity, so they retire (and re-admit) the same number of
// flows per cycle, shared among some 300 or 90k flows in flight. ns/op is a
// whole engine cycle — the pumps' ticks included, whose memory footprint does
// grow with the node count; solver-ns/step is the time inside Fabric.step
// alone, which must not scale with the population, at 0 allocs/op.
func BenchmarkSolverStep(b *testing.B) {
	for _, nodes := range []int{1 << 10, 100 << 10} {
		b.Run(fmt.Sprintf("nodes=%dk", nodes>>10), func(b *testing.B) {
			e := sim.New()
			f := New(Config{Nodes: nodes, CPF: 4, HopCycles: 6, AvgHops: 8, FabricFPC: 8 * 64})
			var inStep time.Duration
			f.bind(e, func(now sim.Cycle) {
				t0 := time.Now()
				f.step(now)
				inStep += time.Since(t0)
			})
			newPumps(e, f, 7, 8192)
			e.Run(4 * 8192) // every pump started, several generations of flows drained
			before := f.SolverStats()
			inStep = 0
			b.ReportAllocs()
			b.ResetTimer()
			for f.SolverStats().Steps-before.Steps < int64(b.N) {
				e.Step()
			}
			b.StopTimer()
			st := f.SolverStats()
			b.ReportMetric(float64(inStep.Nanoseconds())/float64(b.N), "solver-ns/step")
			b.ReportMetric(float64(st.Events()-before.Events())/float64(b.N), "events/step")
			b.ReportMetric(float64(f.nActive), "flows")
		})
	}
}
