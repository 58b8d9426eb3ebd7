package flow

import (
	"fmt"
	"slices"
	"testing"

	"nifdy/internal/packet"
	"nifdy/internal/rng"
	"nifdy/internal/sim"
	"nifdy/internal/topo"
)

// diffCase is one differential scenario: a fabric shape and the seed of the
// randomized script both solvers are driven with.
type diffCase struct {
	seed       uint64
	stride     int
	bis, fab   bool
	lossy      bool
	nodes      int
	dstCap     int // tiny: a handful of parked flits stalls a destination
	hopFlitCyc int
}

func (c diffCase) String() string {
	return fmt.Sprintf("seed=%d/stride=%d/bis=%t/fab=%t/lossy=%t/n=%d/dstcap=%d",
		c.seed, c.stride, c.bis, c.fab, c.lossy, c.nodes, c.dstCap)
}

func (c diffCase) config() Config {
	cfg := Config{
		Nodes: c.nodes, CPF: 4, HopCycles: 6, AvgHops: 2, HopFlitCycles: c.hopFlitCyc,
		DstCapFlits: c.dstCap, ArrCapFlits: 8, SolveStride: c.stride,
	}
	// Caps tight enough that the global shares sit among the access-link
	// shares linkCap/k for small k: flows cross the class boundary both ways
	// as the census moves.
	if c.bis {
		cfg.BisectionFPC = 0.4
	}
	if c.fab {
		cfg.FabricFPC = 1.5
	}
	if c.lossy {
		cfg.Iface = topo.IfaceOptions{DropProb: 0.05, Seed: c.seed}
	}
	return cfg
}

// scriptSend is one scripted injection: not before cycle at.
type scriptSend struct {
	at    sim.Cycle
	dst   int
	words int
	cls   packet.Class
}

// nodeScript is what one node does: its sends in order, and the cycles at
// which it turns pulling arrivals off and on again (it starts on).
type nodeScript struct {
	sends   []scriptSend
	toggles []sim.Cycle
}

// makeScript draws a workload that exercises every solver transition: bursts
// towards a few hot destinations (large fan-in, parked arrivals, stalls when
// the destination stops pulling), background uniform traffic on both
// classes, and quiet gaps long enough for the engine to fast-forward.
func makeScript(c diffCase, horizon sim.Cycle) []nodeScript {
	r := rng.New(c.seed ^ 0xD1FF)
	hot := []int{r.Intn(c.nodes), r.Intn(c.nodes)}
	out := make([]nodeScript, c.nodes)
	for n := range out {
		t := sim.Cycle(r.Intn(40))
		for t < horizon {
			burst := 1 + r.Intn(6)
			for i := 0; i < burst; i++ {
				dst := r.Intn(c.nodes - 1)
				if dst >= n {
					dst++
				}
				if r.Bool(0.45) && hot[i&1] != n {
					dst = hot[i&1]
				}
				cls := packet.Request
				if r.Bool(0.3) {
					cls = packet.Reply
				}
				out[n].sends = append(out[n].sends, scriptSend{at: t, dst: dst, words: 1 + r.Intn(8), cls: cls})
				t += sim.Cycle(r.Intn(12))
			}
			t += sim.Cycle(r.Intn(400))
		}
		for t := sim.Cycle(r.Intn(300)); t < horizon; t += sim.Cycle(20 + r.Intn(500)) {
			out[n].toggles = append(out[n].toggles, t)
		}
		out[n].toggles = out[n].toggles[:len(out[n].toggles)&^1] // end up pulling
	}
	return out
}

// scripted drives one port from a nodeScript under the NIC idle contract: it
// sleeps to its next scripted moment, to the port's BlockedBound while its
// head send waits for a slot, and relies on the solver's wakes for arrivals
// and freed slots — so a wake the solver owes and does not deliver shows up
// as a divergence from the reference, not as a hang both sides share.
type scripted struct {
	pt     *Port
	sc     nodeScript
	nextID int
	node   int
	// log records every send and delivery as (cycle, kind, packet id).
	log []int64
}

func (d *scripted) pulling(now sim.Cycle) bool {
	n, _ := slices.BinarySearch(d.sc.toggles, now+1) // toggles at or before now
	return n%2 == 0
}

func (d *scripted) Tick(now sim.Cycle) {
	for len(d.sc.sends) > 0 && d.sc.sends[0].at <= now && d.pt.CanAccept(d.sc.sends[0].cls) {
		s := d.sc.sends[0]
		d.sc.sends = d.sc.sends[1:]
		p := &packet.Packet{ID: uint64(d.node)<<32 | uint64(d.nextID), Src: d.node, Dst: s.dst,
			Words: s.words, Class: s.cls, Kind: packet.Data}
		d.nextID++
		d.pt.StartSend(now, p)
		d.log = append(d.log, now, 0, int64(p.ID))
	}
	wake := sim.Never
	if d.pulling(now) {
		for {
			p, ok := d.pt.Deliver(now, nil)
			if !ok {
				break
			}
			d.log = append(d.log, now, 1, int64(p.ID))
		}
	}
	if i, _ := slices.BinarySearch(d.sc.toggles, now+1); i < len(d.sc.toggles) {
		wake = d.sc.toggles[i]
	}
	if len(d.sc.sends) > 0 {
		if at := d.sc.sends[0].at; at > now {
			wake = min(wake, at)
		} else {
			wake = min(wake, d.pt.BlockedBound(now))
		}
	}
	d.pt.Activity().Sleep(wake)
}

func (d *scripted) Activity() *sim.Activity { return d.pt.Activity() }

// flowState reports a live flow's remainder and rate as of the solver's last
// step, whichever of the three solver states holds it.
func (f *Fabric) flowState(id int32) (rem, rate int64) {
	if f.fHeap[id] >= 0 {
		cl := f.classOf(id)
		return f.fRem[id] - cl.s - cl.share*int64(f.lastRun-cl.at), cl.share
	}
	return f.fRem[id] - f.fRate[id]*int64(f.lastRun-f.fAt[id]), f.fRate[id]
}

// snapshot flattens everything observable about a fabric at cycle now into
// one comparable slice: every flow's admission number, remainder, rate and
// drain bound; the pipes in order (which is the retire order); parked and
// arrival queues; the books; the solver's next wake; every port's
// BlockedBound. state supplies (rem, rate) per flow id.
func snapshot(f *Fabric, now sim.Cycle, state func(id int32) (rem, rate int64)) []int64 {
	var s []int64
	for id, p := range f.fPkt {
		if p == nil {
			continue
		}
		rem, rate := state(int32(id))
		s = append(s, int64(id), f.fSeq[id], int64(p.ID), rem, rate, int64(f.drainAt(int32(id))))
	}
	s = append(s, -1)
	for c := range f.pipes {
		f.pipes[c].ForEach(func(e pipeEntry) { s = append(s, int64(e.p.ID), int64(e.at)) })
		s = append(s, -2)
	}
	for i := range f.parked {
		f.parked[i].ForEach(func(p *packet.Packet) { s = append(s, int64(p.ID)) })
		s = append(s, int64(f.parkedFlits[i]))
	}
	for n := range f.ports {
		pt := &f.ports[n]
		for c := range pt.arrQ {
			pt.arrQ[c].ForEach(func(p *packet.Packet) { s = append(s, int64(p.ID)) })
			s = append(s, int64(pt.arrFlits[c]))
		}
		inj, del, drop := pt.Stats()
		s = append(s, int64(pt.BlockedBound(now)), inj, del, drop)
	}
	inj, del, drop := f.PacketCounters()
	return append(s, inj, del, drop, int64(f.nextWork), int64(f.lastRun), int64(f.BufferedFlits()))
}

// runDifferential drives the production solver and the reference with the
// same script, comparing complete snapshots after chunks of 1..40 cycles
// (single cycles catch the first divergent step; longer chunks let the
// engine fast-forward, so the solvers also meet after sparse steps).
func runDifferential(t testing.TB, c diffCase) SolverStats {
	const horizon = 6000
	script := makeScript(c, horizon*2/3) // the tail drains
	cfg := c.config()

	type side struct {
		e   *sim.Engine
		f   *Fabric
		ds  []*scripted
		ref *refSolver
	}
	mk := func(ref bool) *side {
		s := &side{e: sim.New()}
		if ref {
			s.ref = newRefSolver(cfg)
			s.f = s.ref.f
			s.ref.register(s.e)
		} else {
			s.f = New(cfg)
			s.f.RegisterRouters(s.e)
		}
		for n := 0; n < c.nodes; n++ {
			d := &scripted{pt: s.f.FlowPort(n), node: n, sc: nodeScript{
				sends: slices.Clone(script[n].sends), toggles: script[n].toggles}}
			s.ds = append(s.ds, d)
			s.e.Register(d)
		}
		return s
	}
	got, want := mk(false), mk(true)

	compare := func() {
		t.Helper()
		now := got.e.Now()
		if want.e.Now() != now {
			t.Fatalf("%v: engines at cycles %d and %d", c, now, want.e.Now())
		}
		a := snapshot(got.f, now, got.f.flowState)
		b := snapshot(want.f, now, func(id int32) (int64, int64) { return want.f.fRem[id], want.f.fRate[id] })
		if !slices.Equal(a, b) {
			t.Fatalf("%v: solver state diverges from the reference at cycle %d\n got  %v\n want %v", c, now, a, b)
		}
		for n := range got.ds {
			if !slices.Equal(got.ds[n].log, want.ds[n].log) {
				t.Fatalf("%v: node %d send/delivery log diverges by cycle %d", c, n, now)
			}
		}
	}
	chunks := rng.New(c.seed ^ 0xC4A2)
	for got.e.Now() < horizon {
		n := sim.Cycle(1)
		if chunks.Bool(0.3) {
			n = sim.Cycle(1 + chunks.Intn(40))
		}
		got.e.Run(n)
		want.e.Run(n)
		compare()
	}
	// Let the backlog behind the hot destinations drain: everything scripted
	// must get through — a wake both solvers failed to deliver would leave a
	// sender asleep on a free slot for good.
	got.e.Run(20 * horizon)
	want.e.Run(20 * horizon)
	compare()
	st := got.f.SolverStats()
	for n, d := range got.ds {
		if len(d.sc.sends) > 0 {
			t.Fatalf("%v: node %d still holds %d unsent packets", c, n, len(d.sc.sends))
		}
	}
	if st.Arrivals == 0 || st.Arrivals != st.Departures {
		t.Fatalf("%v: %d arrivals, %d departures: the fabric did not drain", c, st.Arrivals, st.Departures)
	}
	return st
}

// TestSolverDifferential holds the event-driven solver to the reference over
// seeds × stride {1, 16} × {no caps, bisection, fabric, both} × lossless/lossy,
// always with a destination cap small enough to force stall edges.
func TestSolverDifferential(t *testing.T) {
	var sum SolverStats
	for seed := uint64(1); seed <= 3; seed++ {
		for _, stride := range []int{1, 16} {
			for caps := 0; caps < 4; caps++ {
				for _, lossy := range []bool{false, true} {
					c := diffCase{seed: seed, stride: stride, bis: caps&1 != 0, fab: caps&2 != 0, lossy: lossy,
						nodes: 10 + int(seed)*3, dstCap: 8, hopFlitCyc: int(seed) & 1}
					t.Run(c.String(), func(t *testing.T) {
						st := runDifferential(t, c)
						sum.ClassJoins += st.ClassJoins
						sum.Flips += st.Flips
						sum.StallEdges += st.StallEdges
						sum.WheelExpiries += st.WheelExpiries
					})
				}
			}
		}
	}
	t.Logf("%+v", sum)
	// The matrix must reach the machinery it is there to check.
	if sum.ClassJoins == 0 || sum.Flips == 0 || sum.StallEdges == 0 || sum.WheelExpiries == 0 {
		t.Fatalf("scripts do not exercise the solver: %+v", sum)
	}
}

// FuzzSolverDifferential is the same comparison over fuzzer-chosen scenarios
// (go test -fuzz FuzzSolverDifferential ./internal/flow); the committed corpus
// under testdata/fuzz runs as part of go test.
func FuzzSolverDifferential(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(12), uint8(8))
	f.Add(uint64(7), uint8(0b10111), uint8(9), uint8(4))
	f.Fuzz(func(t *testing.T, seed uint64, shape, nodes, dstCap uint8) {
		c := diffCase{
			seed: seed, stride: 1, bis: shape&1 != 0, fab: shape&2 != 0, lossy: shape&4 != 0,
			hopFlitCyc: int(shape>>3) & 1, nodes: 4 + int(nodes%29), dstCap: 1 + int(dstCap%24),
		}
		if shape&16 != 0 {
			c.stride = 16
		}
		runDifferential(t, c)
	})
}
