package main

import (
	"runtime"

	"nifdy/internal/core"
	"nifdy/internal/harness"
	"nifdy/internal/nic"
	"nifdy/internal/node"
	"nifdy/internal/packet"
	"nifdy/internal/router"
	"nifdy/internal/sim"
	"nifdy/internal/topo"
	"nifdy/internal/traffic"
)

// cell is one wired simulation that the benchmark steps in chunks. Every
// workload but fabric_incast is a cell; stats folds the workload's simulated
// counters into nic.Stats so that two cells compare with ==.
type cell struct {
	eng   *sim.Engine
	net   topo.Network
	stats func() nic.Stats
	close func()
}

// workload is one set of inputs; BENCHMARK.json and README.md say why each
// was chosen. The cycle counts are frozen: warm cycles run
// before timing starts, the run advances chunk cycles at a time, and the
// simulated statistics are read after exactly exact measured cycles, however
// long the run goes on for.
type workload struct {
	name               string
	warm, chunk, exact sim.Cycle
	// threads is the GOMAXPROCS the workload runs at: its engine shards.
	threads int
	// build wires the simulation the end-to-end run measures.
	build func(seed uint64) *cell
	// traced wires the same simulation from this package, with every NIC and
	// processor behind a timing wrapper; nil where there is neither to wrap.
	traced func(seed uint64, tr *tracer) *cell
	// reference, where set, wires a simulation that must agree with build on
	// every counter after the warm-up (flit_heavy_sharded against one shard).
	reference func(seed uint64) *cell
}

// endless returns the generator's programs with the phase count raised so
// that no program finishes inside a run: the load stays closed-loop, every
// node blocked on NIC back-pressure, for as long as the run lasts.
func endless(t traffic.Config) func(n int) node.Program {
	t.Phases = 1 << 20
	return traffic.NewGen(t, nil).Program
}

func heavy(nodes int) func(seed uint64) func(int) node.Program {
	return func(seed uint64) func(int) node.Program { return endless(traffic.Heavy(nodes, seed)) }
}

func light(nodes int) func(seed uint64) func(int) node.Program {
	return func(seed uint64) func(int) node.Program { return endless(traffic.Light(nodes, seed)) }
}

// fromHarness is a cell built by harness.Build: NIFDY NICs, CM-5 costs.
func fromHarness(spec harness.NetSpec, kind harness.NICKind, programs func(uint64) func(int) node.Program, shards, window int) func(uint64) *cell {
	return func(seed uint64) *cell {
		s := harness.Build(harness.BuildOpts{
			Net: spec, Kind: kind, Seed: seed, Program: programs(seed),
			EngineShards: shards, Window: window,
		})
		return &cell{eng: s.Eng, net: s.Net, stats: s.AggregateStats, close: s.Close}
	}
}

// wired is harness.Build's serial, unchecked, single-process wiring done from
// this package, so that each NIC and each processor can be registered behind
// a timing wrapper: fabric, engine, routers, then all NICs in node order,
// then all processors in node order. Build also hangs the pending-packet
// counters on every NIC's hooks; they observe and never steer, so they are
// left out here. The equivalence test holds this against Build.
func wired(spec harness.NetSpec, kind harness.NICKind, programs func(uint64) func(int) node.Program) func(uint64, *tracer) *cell {
	return func(seed uint64, tr *tracer) *cell {
		net := spec.Build(seed, topo.IfaceOptions{Seed: seed, Window: 1})
		eng := sim.New()
		net.RegisterRoutersSharded(eng, net.Partition(1))
		nics := make([]nic.NIC, net.Nodes())
		// One slab for the wrappers, in registration order, so that the sweep
		// that walks them stays in cache.
		wrappers := make([]timed, 2*net.Nodes())
		for n := range nics {
			if kind == harness.NIFDY {
				cfg := spec.Params
				cfg.Node = n
				cfg.IDs = packet.NewNodeIDs(n)
				nics[n] = core.New(cfg, net.Iface(n))
			} else {
				nics[n] = nic.NewBasic(nic.BasicConfig{Node: n, OutBuf: 1, ArrBuf: 2}, net.Iface(n))
			}
			wrappers[n] = timed{nics[n].(sim.IdleTicker), &tr.core}
			eng.Register(&wrappers[n])
		}
		program := programs(seed)
		procs := make([]*node.Proc, net.Nodes())
		for n := range procs {
			procs[n] = node.NewProc(n, nics[n], node.CM5Costs(), program(n))
			wrappers[len(nics)+n] = timed{procs[n], &tr.node}
			eng.Register(&wrappers[len(nics)+n])
			procs[n].Start()
		}
		return &cell{
			eng: eng, net: net,
			stats: func() nic.Stats {
				var a nic.Stats
				for _, nc := range nics {
					add(&a, *nc.Stats())
				}
				return a
			},
			close: func() {
				for _, p := range procs {
					p.Stop()
				}
			},
		}
	}
}

// pumped is a fabric driven by one port pump per node: no NIC, no processor.
// Sent counts packets the pumps injected and Accepted packets the ports
// delivered.
func pumped(spec harness.NetSpec) func(uint64) *cell {
	return func(seed uint64) *cell {
		net := spec.Build(seed, topo.IfaceOptions{Seed: seed})
		eng := sim.New()
		net.RegisterRoutersSharded(eng, net.Partition(1))
		pumps := newPumps(func(n int) router.Port { return net.Iface(n) }, net.Nodes(), seed)
		for n := range pumps {
			eng.Register(&pumps[n])
		}
		return &cell{
			eng: eng, net: net,
			stats: func() nic.Stats {
				var a nic.Stats
				for n := range pumps {
					a.Sent += pumps[n].sent
					a.Accepted += pumps[n].delivered
				}
				return a
			},
			close: func() {},
		}
	}
}

// add sums b into a, field by field.
func add(a *nic.Stats, b nic.Stats) {
	a.Sent += b.Sent
	a.Accepted += b.Accepted
	a.Injected += b.Injected
	a.AcksSent += b.AcksSent
	a.AcksReceived += b.AcksReceived
	a.BulkGrants += b.BulkGrants
	a.BulkRejects += b.BulkRejects
	a.BulkPackets += b.BulkPackets
	a.Retransmits += b.Retransmits
	a.Duplicates += b.Duplicates
}

// sub returns a minus b, field by field: the counters of a window.
func sub(a, b nic.Stats) nic.Stats {
	return nic.Stats{
		Sent: a.Sent - b.Sent, Accepted: a.Accepted - b.Accepted,
		Injected: a.Injected - b.Injected,
		AcksSent: a.AcksSent - b.AcksSent, AcksReceived: a.AcksReceived - b.AcksReceived,
		BulkGrants: a.BulkGrants - b.BulkGrants, BulkRejects: a.BulkRejects - b.BulkRejects,
		BulkPackets: a.BulkPackets - b.BulkPackets,
		Retransmits: a.Retransmits - b.Retransmits, Duplicates: a.Duplicates - b.Duplicates,
	}
}

// fabricIncast is the one workload that is not a cell: harness.FabricCell
// builds and runs a whole simulation per call, so a chunk is one round of the
// four cells below, Build included.
const fabricIncast = "fabric_incast"

// Frozen sizes of fabric_incast: the mesh and the incast width, the cycles
// each cell runs in the warm-up round and in every measured round, and the
// rounds that make up the exact window. The cycle counts are variables, as
// the stepped workloads' are, only so that the smoke test can shrink them.
const (
	fabricSide   = 9
	fabricFanIn  = 48
	fabricRounds = 7
)

var (
	fabricWarm   = sim.Cycle(2_000)
	fabricCycles = sim.Cycle(3_000)
)

// nifdyFloor is the least by which NIFDY must beat PFC on lossless incast,
// the floor scripts/benchfabric.sh holds the scenario pack to.
const nifdyFloor = 1.05

// fabricKind is one cell of a fabric_incast round.
type fabricKind struct {
	name  string
	kind  harness.NICKind
	lossy bool
}

var fabricKinds = []fabricKind{
	{"nifdy", harness.NIFDY, false},
	{"nifdy_lossy", harness.NIFDY, true}, // WireDrop 1/512, retransmission on
	{"pfc", harness.PFC, false},
	{"dcqcn", harness.DCQCN, false},
}

// threads sets GOMAXPROCS to n and returns the call that puts it back. Every
// run pins it to the engine's shard count. A serial engine has one runnable
// goroutine at a time, and with a second, idle P every handoff between the
// engine and a processor's goroutine wakes that P to look for work: on this
// host flit_heavy runs 23% slower at GOMAXPROCS 2 than at 1, and three times
// less steadily from run to run.
func threads(n int) (restore func()) {
	old := runtime.GOMAXPROCS(n)
	return func() { runtime.GOMAXPROCS(old) }
}

// workloads lists the stepped workloads; fabric_incast is beside them in
// BENCHMARK.json. The windows are sized for a 10 s run on a 2-CPU host: exact
// is some four fifths of what one of the run's two executions covers in its
// 5 s, so that the traced run, which steps two simulations in turn, reaches
// it inside its 10 s too.
var workloads = []workload{
	{
		name: "flit_heavy",
		warm: 20_000, chunk: 10_000, exact: 150_000, threads: 1,
		build:  fromHarness(harness.Mesh2D(), harness.NIFDY, heavy(64), 1, 1),
		traced: wired(harness.Mesh2D(), harness.NIFDY, heavy(64)),
	},
	{
		name: "flit_light",
		warm: 50_000, chunk: 25_000, exact: 750_000, threads: 1,
		build:  fromHarness(harness.CM5FatTree(), harness.NIFDY, light(64), 1, 1),
		traced: wired(harness.CM5FatTree(), harness.NIFDY, light(64)),
	},
	{
		name: "flit_heavy_sharded",
		warm: 20_000, chunk: 10_000, exact: 150_000, threads: 2,
		build:     fromHarness(harness.Mesh2D(), harness.NIFDY, heavy(64), 2, 4),
		reference: fromHarness(harness.Mesh2D(), harness.NIFDY, heavy(64), 1, 4),
	},
	{
		name: "flow_procs",
		warm: 2_000, chunk: 500, exact: 8_000, threads: 1,
		build:  fromHarness(harness.FlowMeshSized(32, 32), harness.NIFDY, heavy(1024), 1, 1),
		traced: wired(harness.FlowMeshSized(32, 32), harness.NIFDY, heavy(1024)),
	},
	{
		name: "flow_scale",
		warm: 16_500, chunk: 1_500, exact: 10_500, threads: 1,
		build: pumped(harness.FlowMeshSized(320, 320)),
	},
}

// find returns the stepped workload of that name.
func find(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
