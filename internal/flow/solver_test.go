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
	newPumpsSharded(e, f, f.shardOf, seed, spread)
}

func newPumpsSharded(e *sim.Engine, f *Fabric, shardOf []int, seed uint64, spread int) {
	const perNode = 4
	n := f.Nodes()
	pumps := make([]pump, n)
	pkts := make([]packet.Packet, n*perNode)
	for i := range pumps {
		p := &pumps[i]
		*p = pump{pt: f.FlowPort(i), node: i, nodes: n, r: rng.NewStream(seed, uint64(i))}
		for j := 0; j < perNode; j++ {
			p.pool = append(p.pool, &pkts[i*perNode+j])
		}
		p.pt.Activity().Sleep(sim.Cycle(p.r.Intn(spread)))
		e.RegisterSharded(shardOf[i], p)
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
		*pk = packet.Packet{Src: p.node, Dst: dst, Words: 1 + p.r.Intn(8), Class: packet.Request, Kind: packet.Data}
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

// workPerEvent runs a pumped x-by-x flow mesh to steady state and reports the
// solver's per-flow operations per event over a measured window.
func workPerEvent(x int, warm, window sim.Cycle) (ratio float64, st SolverStats) {
	e := sim.New()
	f := New(MeshConfig(x, x, topo.IfaceOptions{}))
	f.RegisterRouters(e)
	newPumps(e, f, 1995, 1024)
	e.Run(warm)
	before := f.SolverStats()
	e.Run(window)
	st = f.SolverStats()
	work, events := st.Work()-before.Work(), st.Events()-before.Events()
	return float64(work) / float64(events), st
}

// maxWorkPerEvent is the committed ceiling on solver operations (remainders
// advanced + flows re-rated + wheel and class-heap operations) per event
// (arrival, departure, stall edge). An arrival or a departure re-rates the
// flows sharing its two access links (~2.6 under uniform traffic at this
// load) and costs the flow itself one join or file and one expiry or leave;
// measured 2.8 at both sizes. A solver that visits the flow set per step
// reads in the hundreds here, and grows with the mesh.
const maxWorkPerEvent = 4

// TestSolverWorkPerEvent is the complexity gate, independent of wall clock:
// on pumped 64×64 and 128×128 meshes at the same per-node load the solver's
// work per event is under the committed constant and the same at both sizes.
func TestSolverWorkPerEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 16k-node mesh")
	}
	small, st64 := workPerEvent(64, 6000, 6000)
	large, st128 := workPerEvent(128, 6000, 6000)
	t.Logf("64x64: %.2f ops/event %+v", small, st64)
	t.Logf("128x128: %.2f ops/event %+v", large, st128)
	for _, r := range []float64{small, large} {
		if r > maxWorkPerEvent {
			t.Errorf("solver spends %.2f operations per event, committed ceiling %d", r, maxWorkPerEvent)
		}
	}
	if d := large / small; d > 1.1 || d < 1/1.1 {
		t.Errorf("solver work per event depends on size: %.2f at 64x64, %.2f at 128x128", small, large)
	}
}

// TestShardedHandOff runs the package's only concurrency — ports staging
// sends and freed arrival space into per-shard lists during the tick phase,
// the solver merging them pre-tick — under 1, 2 and 4 engine shards: the
// fabric ends in the identical state (and `make race` watches the hand-off).
func TestShardedHandOff(t *testing.T) {
	var want []int64
	for _, shards := range []int{1, 2, 4} {
		e := sim.NewParallel(shards)
		f := New(MeshConfig(16, 16, topo.IfaceOptions{}))
		shardOf := f.Partition(shards)
		f.RegisterRoutersSharded(e, shardOf)
		newPumpsSharded(e, f, shardOf, 3, 64)
		e.Run(3000)
		e.Close()
		got := snapshot(f, e.Now(), f.flowState)
		if st := f.SolverStats(); st.Departures < 1000 {
			t.Fatalf("%d shards: only %d departures", shards, st.Departures)
		}
		if want == nil {
			want = got
		} else if !slices.Equal(got, want) {
			t.Errorf("%d shards: fabric state differs from the 1-shard run", shards)
		}
	}
}

// TestDirtyDedup pins the duplicate-dirty fix: a port lists its node once per
// packet it pops, the merge hands each node to promote once, and that loses
// nothing because a repeated promote is a no-op.
func TestDirtyDedup(t *testing.T) {
	f := New(Config{Nodes: 8})
	var got []int32
	visit := func(v int32) { got = append(got, v) }
	f.forEachMerged([][]int32{{1, 1, 1, 4, 6, 6}}, visit)
	if want := []int32{1, 4, 6}; !slices.Equal(got, want) {
		t.Errorf("one shard: visited %v, want %v", got, want)
	}
	got = nil
	f.staged = make([][]stagedSend, 3) // sizes the merge cursors
	f.forEachMerged([][]int32{{0, 0, 5, 5}, {2, 3, 3}, {7}}, visit)
	if want := []int32{0, 2, 3, 5, 7}; !slices.Equal(got, want) {
		t.Errorf("three shards: visited %v, want %v", got, want)
	}

	// A destination with three packets parked behind a full arrival buffer;
	// its NIC pops two arrivals in one tick.
	e, f, ds := build(t, Config{Nodes: 4, CPF: 4, HopCycles: 6, AvgHops: 2, ArrCapFlits: 8, DstCapFlits: 64})
	ds[3].deliver = false
	for i := 0; i < 5; i++ {
		ds[i%3].sends = append(ds[i%3].sends, mkPacket(i%3, 3, 4, packet.Request))
	}
	e.Run(1000)
	if got := f.parked[3*packet.NumClasses].Len(); got != 3 {
		t.Fatalf("%d packets parked, want 3", got)
	}
	for i := 0; i < 2; i++ {
		if _, ok := ds[3].pt.Deliver(e.Now(), nil); !ok {
			t.Fatal("arrival buffer empty")
		}
	}
	if got := f.dirty[0]; !slices.Equal(got, []int32{3, 3}) {
		t.Fatalf("dirty list %v, want the node once per pop", got)
	}
	if !f.promote(e.Now(), 3) {
		t.Fatal("first promote moved nothing into the freed space")
	}
	parked, arr := f.parked[3*packet.NumClasses].Len(), ds[3].pt.arrFlits[packet.Request]
	marked := len(f.rateDirty)
	if f.promote(e.Now(), 3) {
		t.Error("second promote of the same node reported progress")
	}
	if f.parked[3*packet.NumClasses].Len() != parked || ds[3].pt.arrFlits[packet.Request] != arr || len(f.rateDirty) != marked {
		t.Error("second promote of the same node changed state")
	}
}

// staleSleeper sends a 16-flit packet from node 0 and a 4-flit one from node
// 1 to node 3 at cycle 0 and reports the cycle node 0 first sees its slot
// free again, along with the first BlockedBound it was given while the flow
// was live. A sleepy node 0 sleeps on every bound it is given; the other
// polls every cycle, so what it reports is the retire cycle itself.
func staleSleeper(cfg Config, sleepy bool) (freed, bound sim.Cycle) {
	e := sim.New()
	f := New(cfg)
	f.RegisterRouters(e)
	pt := f.FlowPort(0)
	e.Register(idle{pt.Activity(), func(now sim.Cycle) {
		switch {
		case now == 0:
			pt.StartSend(now, mkPacket(0, 3, 16, packet.Request))
			f.FlowPort(1).StartSend(now, mkPacket(1, 3, 4, packet.Request))
		case pt.CanAccept(packet.Request):
			if freed == 0 {
				freed = now
			}
			return
		}
		b := pt.BlockedBound(now)
		if bound == 0 && b > now+1 {
			bound = b
		}
		if sleepy {
			pt.Activity().Sleep(b)
		}
	}})
	e.Run(1000)
	return freed, bound
}

// TestBlockedBoundStaleSleeper is the test BlockedBound's soundness argument
// implies. A NIC sleeps on the bound of a flow that shares its destination
// with a shorter one; when the shorter one retires the flow's rate rises and
// it drains well before the bound the NIC holds, and nothing wakes the NIC
// at the rate change. It must still see its slot free on the exact retire
// cycle, because retire wakes it — whether the flow held its own deadline
// (local) or rode a share class.
func TestBlockedBoundStaleSleeper(t *testing.T) {
	for name, cfg := range map[string]Config{
		"local": {Nodes: 4, CPF: 4, HopCycles: 6, AvgHops: 2},
		"class": {Nodes: 4, CPF: 4, HopCycles: 6, AvgHops: 2, FabricFPC: 0.6},
	} {
		want, _ := staleSleeper(cfg, false)
		got, bound := staleSleeper(cfg, true)
		if want == 0 || bound <= want {
			t.Fatalf("%s: flow retires at %d, NIC slept on bound %d: the scenario does not leave the bound stale", name, want, bound)
		}
		if got != want {
			t.Errorf("%s: NIC asleep on bound %d saw its slot free at cycle %d, the flow retired at %d", name, bound, got, want)
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
			f.bind(e, f.shardOf, func(now sim.Cycle) {
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
