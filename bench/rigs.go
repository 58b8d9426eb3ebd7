package main

import (
	"fmt"
	"runtime"
	"time"

	"nifdy/internal/core"
	"nifdy/internal/harness"
	"nifdy/internal/link"
	"nifdy/internal/node"
	"nifdy/internal/packet"
	"nifdy/internal/sim"
	"nifdy/internal/topo"
)

// The rigs time one layer on its own, through its public API, with nothing
// of the other layers running. They do not depend on the workload, so every
// traced run gives the same seven numbers beside its own.

// rigTickers is how many components the engine rigs register: enough that
// the sweep, not the Run loop around it, is what the time goes to.
const rigTickers = 4096

// awake is a component that is never asleep and does nothing.
type awake struct{ act sim.Activity }

func (a *awake) Tick(sim.Cycle)          {}
func (a *awake) Activity() *sim.Activity { return &a.act }

// napper sleeps again, nap cycles ahead, every time it is ticked.
type napper struct{ act sim.Activity }

const nap = 1000

func (n *napper) Tick(now sim.Cycle)      { n.act.Sleep(now + nap) }
func (n *napper) Activity() *sim.Activity { return &n.act }

// rigTickOverhead is the host time per Tick visited when every component is
// awake and its Tick is empty: the cost of the engine's sweep alone.
func rigTickOverhead(cycles sim.Cycle) float64 {
	eng := sim.New()
	for i := 0; i < rigTickers; i++ {
		eng.Register(&awake{})
	}
	eng.Run(cycles / 10)
	t0 := time.Now()
	eng.Run(cycles)
	return float64(time.Since(t0).Nanoseconds()) / float64(cycles*rigTickers)
}

// rigIdle is the simulated cycles per host second while every component
// sleeps nap cycles at a time: idle skipping and fast-forward.
func rigIdle(cycles sim.Cycle) float64 {
	eng := sim.New()
	for i := 0; i < rigTickers; i++ {
		eng.Register(&napper{})
	}
	eng.Run(cycles / 10)
	t0 := time.Now()
	eng.Run(cycles)
	return float64(cycles) / time.Since(t0).Seconds()
}

// rigSharded is wall(1 shard) / wall(2 shards) on the heavy mesh, both at
// window 4 and each at as many threads as shards. It fails if the two
// disagree on any counter. On a host with one CPU there is nothing to measure
// and it reports 0.
func rigSharded(seed uint64, warm, cycles sim.Cycle) (float64, error) {
	if runtime.NumCPU() < 2 {
		return 0, nil
	}
	var wall [2]time.Duration
	var got [2]string
	for i, shards := range []int{1, 2} {
		restore := threads(shards)
		c := fromHarness(harness.Mesh2D(), harness.NIFDY, heavy(64), shards, 4)(seed)
		c.eng.Run(warm)
		t0 := time.Now()
		c.eng.Run(cycles)
		wall[i] = time.Since(t0)
		got[i] = fmt.Sprintf("%+v", c.stats())
		c.close()
		restore()
	}
	if got[0] != got[1] {
		return 0, fmt.Errorf("sharded rig: 1 shard %s, 2 shards %s", got[0], got[1])
	}
	return wall[0].Seconds() / wall[1].Seconds(), nil
}

// rigRouter is the host time per node-cycle of the saturated flit mesh with
// port pumps on it: routers, links and interfaces with no NIC or processor.
func rigRouter(seed uint64, warm, cycles sim.Cycle) float64 {
	c := pumped(harness.Mesh2D())(seed)
	c.eng.Run(warm)
	t0 := time.Now()
	c.eng.Run(cycles)
	return float64(time.Since(t0).Nanoseconds()) / float64(cycles*sim.Cycle(c.net.Nodes()))
}

// echo sends one value a cycle down a cross-shard wire and receives the one
// sent the cycle before, so that each cycle is one Send, one Flush in the
// engine's flush phase, and one Recv.
type echo struct {
	w    *link.Wire[int]
	recv int64
}

func (e *echo) Tick(now sim.Cycle) {
	if _, ok := e.w.Recv(now); ok {
		e.recv++
	}
	e.w.Send(now, int(now))
}

// rigLink is the host time per Send, Flush, Recv round trip of a link.Wire,
// the engine's cost of ticking the one component included.
func rigLink(cycles sim.Cycle) (float64, error) {
	eng := sim.New()
	e := &echo{w: link.NewWire[int](1)}
	e.w.CrossShard(eng.CrossFlusher(0))
	eng.Register(e)
	eng.Run(cycles / 10)
	t0 := time.Now()
	eng.Run(cycles)
	ns := float64(time.Since(t0).Nanoseconds()) / float64(cycles)
	if want := int64(cycles+cycles/10) - 1; e.recv != want {
		return 0, fmt.Errorf("link rig: received %d of %d", e.recv, want)
	}
	return ns, nil
}

// rigHandoff is the host time per blocking operation of one processor whose
// program does nothing but Consume(1): two channel handoffs between the
// engine and the program's goroutine, once a cycle. Its NIC is real and idle.
func rigHandoff(cycles sim.Cycle) float64 {
	net := harness.Mesh2D().Build(1, topo.IfaceOptions{})
	eng := sim.New()
	unit := core.New(core.Config{Node: 0, IDs: packet.NewNodeIDs(0)}, net.Iface(0))
	eng.Register(unit)
	p := node.NewProc(0, unit, node.CM5Costs(), func(p *node.Proc) {
		for {
			p.Consume(1)
		}
	})
	eng.Register(p)
	p.Start()
	defer p.Stop()
	eng.Run(cycles / 10)
	t0 := time.Now()
	eng.Run(cycles)
	return float64(time.Since(t0).Nanoseconds()) / float64(cycles)
}

// rigFlowError is the flow engine's accuracy: how far the packets delivered
// on the flow twin of the 8x8 mesh are from the flit mesh's, NIFDY, heavy
// traffic, as a percentage of the flit count. It is a simulated statistic.
func rigFlowError(seed uint64, cycles sim.Cycle) (float64, error) {
	var delivered [2]int64
	for i, spec := range []harness.NetSpec{harness.Mesh2D(), harness.FlowTwin(harness.Mesh2D())} {
		c := fromHarness(spec, harness.NIFDY, heavy(64), 1, 1)(seed)
		c.eng.Run(cycles)
		delivered[i] = c.stats().Accepted
		c.close()
	}
	if delivered[0] == 0 {
		return 0, fmt.Errorf("flow rig: flit mesh delivered nothing")
	}
	diff := delivered[1] - delivered[0]
	if diff < 0 {
		diff = -diff
	}
	return 100 * float64(diff) / float64(delivered[0]), nil
}

// rigSizes are the rigs' cycle counts.
type rigSizes struct {
	engine, sharded, shardedWarm, router, routerWarm, link, handoff, flow sim.Cycle
}

var fullRigs = rigSizes{
	engine: 5_000, sharded: 20_000, shardedWarm: 5_000,
	router: 30_000, routerWarm: 5_000, link: 2_000_000, handoff: 300_000, flow: 40_000,
}

// runRigs runs every rig and adds its metric to m.
func runRigs(seed uint64, z rigSizes, m metrics) error {
	defer threads(1)()
	m.set("sim.tick_overhead_ns", rigTickOverhead(z.engine), "ns")
	m.set("sim.idle_cycles_per_s", rigIdle(z.engine*400), "1/s")
	speedup, err := rigSharded(seed, z.shardedWarm, z.sharded)
	if err != nil {
		return err
	}
	m.set("sim.sharded_speedup", speedup, "ratio")
	m.set("router.ns_per_node_cycle", rigRouter(seed, z.routerWarm, z.router), "ns")
	ns, err := rigLink(z.link)
	if err != nil {
		return err
	}
	m.set("link.sendrecv_ns", ns, "ns")
	m.set("node.handoff_ns", rigHandoff(z.handoff), "ns")
	pct, err := rigFlowError(seed, z.flow)
	if err != nil {
		return err
	}
	m.set("flow.delivered_err_pct", pct, "%")
	return nil
}
