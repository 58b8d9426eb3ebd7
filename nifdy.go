// Package nifdy is a laptop-scale reproduction of "NIFDY: A Low Overhead,
// High Throughput Network Interface" (Callahan & Goldstein, ISCA 1995).
//
// NIFDY is a network interface that performs admission control at the edges
// of a multiprocessor interconnect: by default one unacknowledged packet per
// destination (bounded globally by an outstanding-packet table), with
// receiver-granted bulk dialogs — sliding windows with hardware reorder
// buffers — for block transfers. The result is end-to-end flow control,
// congestion avoidance, and in-order delivery over fabrics that reorder.
//
// The package wires together the full evaluation stack the paper used:
//
//   - a cycle-synchronous network simulator (internal/sim, internal/router)
//   - mesh/torus, fat-tree (full, store-and-forward, CM-5), and
//     butterfly/multibutterfly fabrics (internal/topo/...)
//   - the NIFDY unit and its baselines (internal/core, internal/nic)
//   - processor models with CM-5 software overheads (internal/node)
//   - the paper's synthetic and application workloads (internal/traffic,
//     internal/apps/...)
//   - one experiment entry point per table and figure (internal/harness)
//
// # Quick start
//
//	sys := nifdy.New(nifdy.Options{
//	    Net:  nifdy.Mesh2D(),
//	    Kind: nifdy.KindNIFDY,
//	    Program: func(n int) nifdy.Program { ... },
//	})
//	defer sys.Close()
//	sys.Eng.Run(1_000_000)
//
// See examples/ for runnable programs and cmd/nifdy-bench for the
// table/figure reproductions.
package nifdy

import (
	"nifdy/internal/check"
	"nifdy/internal/core"
	"nifdy/internal/harness"
	"nifdy/internal/nic"
	"nifdy/internal/node"
	"nifdy/internal/packet"
	"nifdy/internal/sim"
	"nifdy/internal/stats"
	"nifdy/internal/topo"
	"nifdy/internal/traffic"
)

// Core simulation types.
type (
	// Cycle is a simulated time in processor cycles.
	Cycle = sim.Cycle
	// Engine is the cycle-synchronous simulation engine.
	Engine = sim.Engine
	// Packet is a simulated network packet.
	Packet = packet.Packet
	// Class selects the request or reply logical network.
	Class = packet.Class
	// Network is a simulated fabric.
	Network = topo.Network
	// NetworkChars summarizes a fabric (Table 3 characteristics).
	NetworkChars = topo.Characteristics
	// IfaceOptions are the per-node interface knobs (buffering, loss).
	IfaceOptions = topo.IfaceOptions
	// NIC is a network interface controller.
	NIC = nic.NIC
	// NICStats are per-NIC protocol counters.
	NICStats = nic.Stats
	// Proc is a simulated processor running a Program.
	Proc = node.Proc
	// Program is per-node application code using Proc's blocking API.
	Program = node.Program
	// Costs models software send/receive overheads.
	Costs = node.Costs
	// Barrier is an idealized global barrier for Programs.
	Barrier = node.Barrier
	// Config holds the NIFDY unit parameters (O, B, D, W and extensions).
	Config = core.Config
	// Unit is the NIFDY network interface unit itself.
	Unit = core.NIFDY
	// Table is an aligned text result table.
	Table = stats.Table
	// NetSpec names a network configuration with tuned parameters.
	NetSpec = harness.NetSpec
	// Options configures System assembly.
	Options = harness.BuildOpts
	// System is a fully wired simulation.
	System = harness.Sim
	// Kind selects the NIC under test.
	Kind = harness.NICKind
)

// Packet classes and NIC kinds.
const (
	// Request is the logical network for application requests.
	Request = packet.Request
	// Reply is the logical network for replies and NIFDY acks.
	Reply = packet.Reply
	// NoDialog marks a packet outside any bulk dialog.
	NoDialog = packet.NoDialog

	// KindPlain is the bare NIC baseline.
	KindPlain = harness.Plain
	// KindBuffersOnly has NIFDY's buffering without its protocol.
	KindBuffersOnly = harness.BuffersOnly
	// KindNIFDY is the full NIFDY unit.
	KindNIFDY = harness.NIFDY
	// KindPFC is the plain NIC over a PFC-paused (lossless) fabric.
	KindPFC = harness.PFC
	// KindDCQCN is the DCQCN rate-controlled NIC over an ECN-marking fabric.
	KindDCQCN = harness.DCQCN
)

// New assembles a simulation: fabric, one NIC per node, optional processor
// programs, and statistics hooks. Close it when done to stop program
// goroutines.
func New(o Options) *System { return harness.Build(o) }

// CM5Costs returns the paper's software-overhead calibration (Table 2).
func CM5Costs() Costs { return node.CM5Costs() }

// NewBarrier returns a global barrier for n participants.
func NewBarrier(n int) *Barrier { return node.NewBarrier(n) }

// Standard 64-node networks (Figures 2/3, Table 3).
var (
	// FullFatTree is the full 4-ary fat tree with cut-through routing.
	FullFatTree = harness.FullFatTree
	// SFFatTree is the store-and-forward fat tree.
	SFFatTree = harness.SFFatTree
	// CM5FatTree is the CM-5-like reduced fat tree.
	CM5FatTree = harness.CM5FatTree
	// Mesh2D is the 8x8 wormhole mesh.
	Mesh2D = harness.Mesh2D
	// Torus2D is the 8x8 torus.
	Torus2D = harness.Torus2D
	// Mesh3D is the 4x4x4 mesh.
	Mesh3D = harness.Mesh3D
	// Butterfly is the radix-4 butterfly.
	Butterfly = harness.Butterfly
	// Multibutterfly is the dilation-2 multibutterfly.
	Multibutterfly = harness.Multibutterfly
	// StandardNetworks returns all of the above.
	StandardNetworks = harness.StandardNetworks
)

// Flow-level fidelity (internal/flow): bandwidth-sharing twins of the flit
// fabrics and the analytic constructors for 100k+ node scaling runs. See
// DESIGN.md §8.
var (
	// FlowTwin is spec's flow-level twin, sized from the flit fabric's
	// measured characteristics.
	FlowTwin = harness.FlowTwin
	// HybridTwin embeds spec's flit fabric as the cycle-accurate hot region
	// of a flow-level fabric spanning totalNodes.
	HybridTwin = harness.HybridTwin
	// FlowMeshSized is an analytically sized x-by-y flow-level mesh.
	FlowMeshSized = harness.FlowMeshSized
	// FlowFatTreeSized is an analytically sized 4^levels flow-level fat tree.
	FlowFatTreeSized = harness.FlowFatTreeSized
)

// Experiment entry points — one per paper table/figure (see DESIGN.md and
// EXPERIMENTS.md). Each returns formatted tables; options structs allow
// reduced-scale runs.
var (
	// Table2 prints the processor calibration constants.
	Table2 = harness.Table2
	// Table3 prints network characteristics and tuned NIFDY parameters.
	Table3 = harness.Table3
	// Table3Sweep searches (O,B,W) for one network.
	Table3Sweep = harness.Table3Sweep
	// Figure2 runs the heavy synthetic-traffic comparison.
	Figure2 = harness.Figure2
	// Figure3 runs the light synthetic-traffic comparison.
	Figure3 = harness.Figure3
	// Figure4 runs the O/B scalability study.
	Figure4 = harness.Figure4
	// Figure5 renders the C-shift congestion heatmaps.
	Figure5 = harness.Figure5
	// Figure6 runs the C-shift throughput comparison.
	Figure6 = harness.Figure6
	// EM3D runs the EM3D cycles-per-iteration comparison (Figures 7/8).
	EM3D = harness.EM3D
	// Figure9 runs the radix-sort scan comparison.
	Figure9 = harness.Figure9
	// RadixCoalesce runs the radix-sort coalesce phase.
	RadixCoalesce = harness.RadixCoalesce
	// ExtLossy exercises the §6.2 retransmission extension.
	ExtLossy = harness.ExtLossy
	// ExtAckStrategies compares ack-timing variants.
	ExtAckStrategies = harness.ExtAckStrategies
	// ExtPiggyback measures §6.1 piggybacked acks.
	ExtPiggyback = harness.ExtPiggyback
	// ModelCheck compares the §2.4 analytical model with the simulator.
	ModelCheck = harness.ModelCheck
	// ExtAdaptiveMesh studies adaptive mesh routing with NIFDY (§6.3).
	ExtAdaptiveMesh = harness.ExtAdaptiveMesh
	// AdaptiveMesh2D is the west-first adaptive 8x8 mesh.
	AdaptiveMesh2D = harness.AdaptiveMesh2D
	// ExtHotspot studies hot-spot traffic (§1.1).
	ExtHotspot = harness.ExtHotspot
	// ExtFaults studies dead top-level routers on the fat tree (§1.1).
	ExtFaults = harness.ExtFaults
	// FaultyFatTree builds a fat tree with dead top-level routers.
	FaultyFatTree = harness.FaultyFatTree
	// FabricMesh builds the modern-fabric testbed mesh (DESIGN.md §11).
	FabricMesh = harness.FabricMesh
	// FabricExperiment runs the modern-fabric scenario pack: NIFDY vs
	// PFC/DCQCN/plain under incast, victim, and congestion-spreading
	// traffic on lossless and lossy wires.
	FabricExperiment = harness.FabricExperiment
	// FabricCell runs one (scenario, kind, wire) cell of the pack.
	FabricCell = harness.FabricCell
	// FabricTable renders FabricExperiment points.
	FabricTable = harness.FabricTable
)

// Experiment option types.
type (
	// SynthOpts parameterizes Figure2/Figure3.
	SynthOpts = harness.SynthOpts
	// Figure4Opts parameterizes Figure4.
	Figure4Opts = harness.Figure4Opts
	// CShiftOpts parameterizes Figure5/Figure6.
	CShiftOpts = harness.CShiftOpts
	// EM3DOpts parameterizes EM3D.
	EM3DOpts = harness.EM3DOpts
	// RadixOpts parameterizes Figure9/RadixCoalesce.
	RadixOpts = harness.RadixOpts
	// LossyOpts parameterizes ExtLossy.
	LossyOpts = harness.LossyOpts
	// AckOpts parameterizes the ack ablations.
	AckOpts = harness.AckOpts
	// SweepOpts parameterizes Table3Sweep.
	SweepOpts = harness.SweepOpts
	// ModelCheckOpts parameterizes ModelCheck.
	ModelCheckOpts = harness.ModelCheckOpts
	// FabricOpts parameterizes FabricExperiment.
	FabricOpts = harness.FabricOpts
	// FabricPoint is one measured cell of FabricExperiment.
	FabricPoint = harness.FabricPoint
	// FabricScenario is a modern-fabric stress pattern.
	FabricScenario = traffic.FabricScenario
)

// Modern-fabric traffic scenarios (DESIGN.md §11): a seeded fan-in on the
// center of a width x height mesh, plus the scenario's differentiating
// side traffic.
var (
	// IncastScenario is the fan-in amid uniform background load.
	IncastScenario = traffic.IncastScenario
	// VictimScenario adds two victim flows running the hot column's length.
	VictimScenario = traffic.VictimScenario
	// SpreadScenario adds row-crossing flows on the feeder rows.
	SpreadScenario = traffic.SpreadScenario
)

// Correctness tooling (internal/check): runtime invariant monitors and the
// cross-configuration fuzz sweep. Arm the monitors on any System by setting
// Options.Check; see DESIGN.md §6.
type (
	// CheckOptions arms the invariant monitors on a System (Options.Check).
	CheckOptions = check.Options
	// CheckViolation is one invariant violation report.
	CheckViolation = check.Violation
	// Checker is the installed invariant-monitor subsystem (System.Checker).
	Checker = check.Checker
	// FuzzOpts parameterizes FuzzSweep.
	FuzzOpts = harness.FuzzOpts
	// FuzzResult summarizes a FuzzSweep run.
	FuzzResult = harness.FuzzResult
)

// FuzzSweep runs randomized cross-configuration simulations with every
// invariant monitor armed, diffing sharded runs against the serial engine.
var FuzzSweep = harness.FuzzSweep

// Distributed execution (internal/dist + harness): multi-process simulation
// over a staged socket transport with conservative time-window
// synchronization. A launcher re-executes its own binary as workers; any main
// embedding these entry points must call DistWorkerMain first (before flag
// parsing) and exit when it reports true. See DESIGN.md §9.
type (
	// DistSpec describes a simulation to the distributed workers.
	DistSpec = harness.DistSpec
)

var (
	// DistWorkerMain runs the worker protocol when this process is a
	// re-exec'd distributed worker; call first in main, exit on true.
	DistWorkerMain = harness.DistWorkerMain
	// DistTrace runs a spec over N worker processes through the golden-trace
	// schedule and returns the assembled state trace (bit-comparable to a
	// single-process run of the same spec).
	DistTrace = harness.DistTrace
	// DistRunToDone runs a spec over N worker processes to completion with
	// invariant monitors armed, returning merged stats.
	DistRunToDone = harness.DistRunToDone
)
