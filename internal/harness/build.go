// Package harness wires complete experiments: a network fabric, one NIC per
// node (plain, buffers-only, or NIFDY), processor programs, and statistics —
// and implements one entry point per table and figure of the paper's
// evaluation (see DESIGN.md's experiment index).
package harness

import (
	"fmt"
	"slices"

	"nifdy/internal/check"
	"nifdy/internal/core"
	"nifdy/internal/nic"
	"nifdy/internal/node"
	"nifdy/internal/packet"
	"nifdy/internal/router"
	"nifdy/internal/sim"
	"nifdy/internal/stats"
	"nifdy/internal/topo"
)

// NICKind selects the interface configuration under comparison (§3, §4.1).
type NICKind int

const (
	// Plain is the bare NIC: one outgoing slot, two arrival slots.
	Plain NICKind = iota
	// BuffersOnly has NIFDY's total buffering but no protocol.
	BuffersOnly
	// NIFDY is the full unit from internal/core.
	NIFDY
	// PFC is the plain NIC over a fabric running Priority Flow Control:
	// hop-by-hop pause/resume backpressure at every router input and
	// ejection buffer (DESIGN.md §10). Selecting it sets Fabric.PFC.
	PFC
	// DCQCN is the rate-controlled NIC (nic.DCQCN) over an ECN-marking
	// fabric: routers mark heads crossing congested outputs, receivers echo
	// CNPs, senders pace injection. Selecting it sets Fabric.ECN.
	DCQCN
)

func (k NICKind) String() string {
	switch k {
	case Plain:
		return "none"
	case BuffersOnly:
		return "buffers"
	case NIFDY:
		return "NIFDY"
	case PFC:
		return "PFC"
	case DCQCN:
		return "DCQCN"
	default:
		return fmt.Sprintf("NICKind(%d)", int(k))
	}
}

// Faults are the test-only mutations of one node: substrate faults in its
// interface and rate-limiter faults in its NIC (Kind DCQCN only). The zero
// value injects nothing.
type Faults struct {
	Node  int
	Iface router.IfaceMutations
	DCQCN nic.DCQCNMutations
}

// BuildOpts describes one simulation.
type BuildOpts struct {
	// Net builds the fabric.
	Net NetSpec
	// Kind selects the NIC.
	Kind NICKind
	// Params are the NIFDY parameters (also sizes the buffers-only NIC for
	// a fair comparison). Zero values take the spec's tuned parameters.
	Params core.Config
	// Costs models software overheads; zero selects node.CM5Costs.
	Costs node.Costs
	// Program supplies per-node application code; nil builds no processors
	// (the caller pumps NICs directly).
	Program func(n int) node.Program
	// PendingInterval enables pending-per-receiver sampling (Figure 5).
	PendingInterval sim.Cycle
	// Seed parameterizes fabric adaptivity and loss.
	Seed uint64
	// Drop enables the lossy-fabric model.
	Drop float64
	// WireDrop is the lossy-wire model's per-flit drop probability
	// (router.FabricConfig.WireDrop), the in-flight loss that exercises
	// NIFDY's §6 retransmission path; it composes with every NIC kind. The
	// fabric's other baselines follow Kind: PFC turns on link-level
	// pause/resume, DCQCN ECN marking.
	WireDrop float64
	// Check enables the runtime invariant monitors (internal/check): the
	// built Sim carries a Checker installed as an engine step hook,
	// sweeping the protocol and substrate invariants at the configured
	// cadence. Sequence accounting is switched off where packets are lost
	// for good (Drop or WireDrop without NIFDY retransmission), and keyed
	// by packet ID for NIFDY with Retransmit, whose clones keep the
	// original's ID. The in-order monitor is switched off with it, and for
	// combinations with no ordering guarantee (plain NICs on reordering
	// fabrics, DCQCN). Nil builds no checker and costs nothing.
	Check *check.Options
	// Faults injects test-only faults into one node, for invariant-monitor
	// validation.
	Faults Faults
	// EngineShards is a speed hint for intra-simulation parallelism: the
	// network's topology-aware Partition(max(EngineShards, 1)) decides, and
	// the engine gets one shard per shard the partition uses. Each node's
	// router, NIC, and processor share a shard, and the only cross-shard
	// edges are link wires, whose sends are staged per shard and merged at
	// window boundaries. A flit fabric uses at most one shard per node (per
	// leaf group on fat trees and butterflies); the flow fabric is always
	// serial. Results are bit-identical to the serial engine for any value
	// (enforced by the sharded determinism tests).
	EngineShards int
	// Window is the conservative synchronization window W in cycles
	// (default 1: a boundary after every cycle). W is a model parameter: the
	// fabric's channels are padded so no cross-shard event can arrive
	// within W cycles of its send, which lets shards free-run W cycles
	// between barriers. A fixed W is bit-identical across every {shards}
	// split; different W values are different (equally valid) models.
	Window int
	// DisableIdleSkip turns off quiescence skipping (determinism baseline).
	DisableIdleSkip bool
}

// Sim is a wired simulation.
type Sim struct {
	Eng     *sim.Engine
	Net     topo.Network
	NICs    []nic.NIC
	Procs   []*node.Proc
	Pending *stats.Pending
	// Checker is the invariant-monitor subsystem, non-nil iff
	// BuildOpts.Check was set.
	Checker *check.Checker

	stopped bool
}

// Build wires a simulation from opts.
func Build(opts BuildOpts) *Sim {
	if opts.Costs == (node.Costs{}) {
		opts.Costs = node.CM5Costs()
	}
	window := opts.Window
	if window < 1 {
		window = 1
	}
	// The fabric-baseline kinds imply their fabric feature: PFC is the plain
	// NIC plus pause/resume links, DCQCN is the rate-control NIC plus ECN
	// marking.
	ifOpts := topo.IfaceOptions{
		DropProb: opts.Drop, Seed: opts.Seed,
		Mutate: opts.Faults.Iface, MutateNode: opts.Faults.Node,
		Window: window,
		Fabric: router.FabricConfig{PFC: opts.Kind == PFC, ECN: opts.Kind == DCQCN, WireDrop: opts.WireDrop},
	}
	net := opts.Net.Build(opts.Seed, ifOpts)
	if window > 1 {
		// W > 1 is only sound on fabrics whose channels were padded for it.
		if ws, ok := net.(topo.WindowSized); !ok || ws.SyncWindow() != window {
			panic(fmt.Sprintf("harness: %s does not support a synchronization window of %d",
				opts.Net.Name, window))
		}
	}
	params := opts.Params
	if isZeroParams(params) {
		params = opts.Net.Params
	}
	// Topology-aware partition: node n's router(s), NIC, and processor all
	// tick in shardOf[n]; the fabric marks channels crossing shard
	// boundaries for staged cross-shard delivery.
	shardOf := net.Partition(max(opts.EngineShards, 1))
	shards := 1 + slices.Max(shardOf)
	eng := sim.NewParallel(shards)
	eng.SetWindow(sim.Cycle(window))
	if opts.DisableIdleSkip {
		eng.SetIdleSkip(false)
	}
	s := &Sim{
		Eng: eng, Net: net,
		Pending: stats.NewPending(net.Nodes(), opts.PendingInterval),
	}
	net.RegisterRoutersSharded(s.Eng, shardOf)
	s.Pending.SetShards(shards)
	if opts.PendingInterval > 0 {
		// Sampled as a step hook (pre-tick, on the stepping goroutine): the
		// same between-cycles instant for every shard count.
		s.Eng.RegisterStepHookClocked(s.Pending.Sample, s.Pending.Clock())
	}
	if opts.Check != nil {
		co := *opts.Check
		switch {
		case opts.Kind == NIFDY && params.Retransmit:
			// Retransmission clones carry the original's ID and the §6.2 dup
			// bit suppresses duplicate deliveries, so ID-keyed accounting
			// stays exact even over lossy wires: every logical packet is sent
			// once and accepted exactly once.
			co.ByID = true
		case opts.Drop > 0 || opts.WireDrop > 0:
			// Lossy fabric without retransmission: losses are the point, so
			// end-to-end accounting would only report them.
			co.Sequence = false
			co.InOrder = false
		}
		if co.InOrder && opts.Kind != NIFDY && !opts.Net.InOrderFabric {
			// A plain NIC on a reordering fabric has no ordering guarantee
			// to check.
			co.InOrder = false
		}
		if co.InOrder && opts.Kind == DCQCN {
			// The rate limiter paces packets into whichever VC has credit,
			// and consecutive packets ejecting on different VCs can complete
			// out of order. DCQCN (like the RoCEv2 NICs it models) carries
			// no reorder buffer — presentation order is NIFDY's §2.2
			// contribution, not the baseline's.
			co.InOrder = false
		}
		s.Checker = check.New(s.Eng, net, co)
	}
	// Chars walks every node pair on a mesh: read it once, not once per node.
	cpf := 0
	if opts.Kind == DCQCN {
		cpf = net.Chars().CPF
	}
	for n := 0; n < net.Nodes(); n++ {
		hooks := s.Pending.HooksFor(shardOf[n])
		if s.Checker != nil {
			hooks = nic.Combine(hooks, s.Checker.HooksFor(shardOf[n]))
		}
		var nc nic.NIC
		switch opts.Kind {
		case Plain, PFC:
			// PFC is the plain NIC: the backpressure lives in the fabric.
			nc = nic.NewBasic(nic.BasicConfig{Node: n, OutBuf: 1, ArrBuf: 2, Hooks: hooks}, net.Iface(n))
		case BuffersOnly:
			// Same total buffering as the NIFDY unit, redistributed with at
			// least half on the arrivals side (§3).
			total := params.TotalBuffers()
			arr := (total + 1) / 2
			nc = nic.NewBasic(nic.BasicConfig{Node: n, OutBuf: total - arr, ArrBuf: arr, Hooks: hooks}, net.Iface(n))
		case NIFDY:
			cfg := params
			cfg.Node = n
			// Per-node ID space: allocation is deterministic and race-free
			// regardless of how nodes are sharded.
			cfg.IDs = packet.NewNodeIDs(n)
			cfg.Hooks = hooks
			nc = core.New(cfg, net.Iface(n))
		case DCQCN:
			mut := nic.DCQCNMutations{}
			if n == opts.Faults.Node {
				mut = opts.Faults.DCQCN
			}
			nc = nic.NewDCQCN(nic.DCQCNConfig{
				Node: n, OutBuf: 1, ArrBuf: 2,
				CPF:   cpf,
				Hooks: hooks, Mutate: mut,
			}, net.Iface(n))
		default:
			panic("harness: unknown NIC kind")
		}
		s.Eng.RegisterSharded(shardOf[n], nc)
		s.NICs = append(s.NICs, nc)
		if s.Checker != nil {
			s.Checker.AddNIC(nc)
		}
	}
	if opts.Program != nil {
		for n := 0; n < net.Nodes(); n++ {
			prog := opts.Program(n)
			if prog == nil {
				continue // node has no program: its NIC still ticks
			}
			p := node.NewProc(n, s.NICs[n], opts.Costs, prog)
			// Same shard as the node's NIC, registered after it, so a
			// same-cycle delivery is pollable by the processor's tick.
			s.Eng.RegisterSharded(shardOf[n], p)
			s.Procs = append(s.Procs, p)
			if s.Checker != nil {
				s.Checker.AddProc(p)
			}
			p.Start()
		}
	}
	if s.Checker != nil {
		s.Checker.Install()
	}
	return s
}

// isZeroParams reports whether the caller left the NIFDY parameters unset.
func isZeroParams(c core.Config) bool {
	return c.O == 0 && c.B == 0 && c.D == 0 && c.W == 0 && !c.AckOnArrival &&
		!c.PerPacketBulkAcks && !c.Piggyback && !c.Retransmit &&
		c.Mutate == (core.Mutations{})
}

// Close stops all processor goroutines and the engine's worker pool. Safe to
// call repeatedly.
func (s *Sim) Close() {
	if s.stopped {
		return
	}
	s.stopped = true
	for _, p := range s.Procs {
		p.Stop()
	}
	s.Eng.Close()
}

// Done reports whether every processor finished.
func (s *Sim) Done() bool {
	for _, p := range s.Procs {
		if !p.Done() {
			return false
		}
	}
	return true
}

// RunUntilDone steps until all programs finish or max cycles elapse,
// reporting success and the final cycle.
func (s *Sim) RunUntilDone(max sim.Cycle) (bool, sim.Cycle) {
	ok := s.Eng.RunUntil(s.Done, max)
	return ok, s.Eng.Now()
}

// Accepted reports total packets accepted by processors. Like
// AggregateStats, only call while the engine is between cycles (NIC
// counters are owned by their shards during a tick).
func (s *Sim) Accepted() int64 { return s.AggregateStats().Accepted }

// AggregateStats sums all NIC counters. Only call while the engine is
// between cycles — counters are written by their shards during a tick.
func (s *Sim) AggregateStats() nic.Stats {
	var a nic.Stats
	for _, nc := range s.NICs {
		a.Add(nc.Stats())
	}
	return a
}
