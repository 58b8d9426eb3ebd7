// Package topo defines the interface all simulated network fabrics satisfy
// and the characteristics the paper's Table 3 reports for each (hop counts,
// network volume, bisection bandwidth, in-order behaviour).
//
// Concrete topologies live in subpackages: mesh (2-D/3-D meshes and tori),
// fattree (full 4-ary and CM-5 variants), and butterfly (radix-4 butterfly
// and dilated multibutterfly). Each embeds Base for everything but its
// wiring, routing and Chars.
package topo

import (
	"fmt"

	"nifdy/internal/rng"
	"nifdy/internal/router"
	"nifdy/internal/sim"
)

// Characteristics summarizes a network the way the paper's Table 3 does.
type Characteristics struct {
	// Name is a short human-readable identifier ("8x8 mesh").
	Name string
	// Nodes is the number of end points.
	Nodes int
	// AvgHops and MaxHops are router-to-router distances over all ordered
	// pairs of distinct nodes.
	AvgHops float64
	MaxHops int
	// VolumeFlits is the total router input buffering in flits (all virtual
	// channels, both logical networks), the paper's "network volume".
	VolumeFlits int
	// BisectionFPC is the bisection bandwidth in flits per cycle, counting
	// unidirectional links crossing the worst-case even cut.
	BisectionFPC float64
	// FabricFPC is the aggregate internal capacity in flits per cycle,
	// summed over all router-to-router channels (access links excluded). A
	// uniform flow consuming AvgHops links can sustain at most
	// FabricFPC/AvgHops flits per cycle fabric-wide — the whole-fabric
	// contention bound the flow-level model shares capacity against.
	FabricFPC float64
	// InOrder reports whether the fabric is single-path deterministic and
	// therefore delivers packets between any pair in order by construction.
	InOrder bool
	// CPF is the access-link serialization time in cycles per flit.
	CPF int
	// HopLat is the estimated per-hop latency in cycles of a packet header
	// under zero load (serialization plus route/arbitration). The
	// flow-level twin of a fabric uses CPF and HopLat to size its rate and
	// pipe models.
	HopLat float64
	// HopLatPerFlit is the extra per-hop latency per flit of packet length:
	// zero for wormhole/cut-through fabrics, CPF for store-and-forward
	// fabrics, whose per-hop cost grows with packet size.
	HopLatPerFlit float64
}

func (c Characteristics) String() string {
	return fmt.Sprintf("%s: N=%d avg_d=%.1f max_d=%d vol=%d flits bisect=%.1f f/c inorder=%v",
		c.Name, c.Nodes, c.AvgHops, c.MaxHops, c.VolumeFlits, c.BisectionFPC, c.InOrder)
}

// Network is a fabric with one interface port per node. Routers tick under
// the engine; ports are pumped by the NIC that owns them.
type Network interface {
	// Nodes reports the number of end points.
	Nodes() int
	// Iface returns node n's interface port. Flit-accurate fabrics return a
	// *router.Iface; the flow-level fabric returns its packet-native port.
	Iface(n int) router.Port
	// Partition maps each node to an engine shard in [0, shards),
	// topology-aware: contiguous blocks for meshes and tori, whole leaf
	// groups (subtrees) for fat trees and butterflies, so that a node's
	// interface and its leaf router always land in the same shard and
	// most fabric links stay shard-internal.
	Partition(shards int) []int
	// RegisterRoutersSharded registers each router into the shard implied
	// by shardOf (a node→shard map, normally from Partition) and marks
	// every channel whose endpoints land in different shards as a
	// cross-shard edge (link CrossShard staging). Interfaces are not
	// registered — the NIC owning iface n must be registered in
	// shardOf[n], as must node n's processor.
	RegisterRoutersSharded(e *sim.Engine, shardOf []int)
	// Chars reports the Table 3 characteristics.
	Chars() Characteristics
	// BufferedFlits reports flits currently buffered inside the fabric
	// (congestion/occupancy metric; excludes iface ejection buffers).
	BufferedFlits() int
	// AuditRouters calls f once per fabric router, in a deterministic
	// order. The invariant monitors use it to take a global census of
	// buffered flits and credits; like router.Audit it must only run while
	// the fabric is quiescent (e.g. from an engine step hook).
	AuditRouters(f func(*router.Router))
}

// RouterWork sums the exact work counts of n's routers (router.Work). Like
// AuditRouters it must only run while the fabric is quiescent.
func RouterWork(n Network) router.Work {
	var w router.Work
	n.AuditRouters(func(r *router.Router) { w.Add(r.Work()) })
	return w
}

// AlignedPartition maps nodes onto shards in contiguous blocks whose
// boundaries fall only on multiples of align (align = the leaf group size a
// topology must keep intact, 1 for meshes). Shard sizes are balanced to
// within one group. shards values below 1 (or a non-positive align) yield
// the all-zeros single-shard map.
func AlignedPartition(nodes, align, shards int) []int {
	shardOf := make([]int, nodes)
	if shards <= 1 || align <= 0 {
		return shardOf
	}
	groups := nodes / align
	if groups < 1 {
		return shardOf
	}
	if shards > groups {
		shards = groups
	}
	for n := range shardOf {
		g := n / align
		if g >= groups { // remainder nodes ride with the last group
			g = groups - 1
		}
		shardOf[n] = g * shards / groups
	}
	return shardOf
}

// Edge records one channel between two fabric components so a topology can
// mark cross-shard links after partitioning. From and To are opaque
// endpoint keys (router indices, or encoded node numbers) that the
// topology's shard-lookup function resolves; From is the side writing
// flits, To the side consuming them (credits flow the other way).
type Edge struct {
	Ch       *router.Channel
	From, To int
}

// WindowSized is the capability a Network must implement to be built with a
// conservative-sync window above 1: its router-router channels are padded
// with router.NewChannelSync so no cross-shard event can arrive inside a
// window. The harness refuses W > 1 builds of fabrics without it.
type WindowSized interface {
	SyncWindow() int
}

// MarkCross walks edges and, for every one whose endpoints resolve to
// different shards, marks the flit link with the writer's shard cross-
// flusher and the credit wire with the consumer's (credits travel To→From,
// so the flit consumer is the credit writer). The cross-flushers drain once
// per window boundary.
func MarkCross(e *sim.Engine, edges []Edge, shardAt func(key int) int) {
	for _, ed := range edges {
		ws, cs := shardAt(ed.From), shardAt(ed.To)
		if ws == cs {
			continue
		}
		ed.Ch.Flits.CrossShard(e.CrossFlusher(ws))
		ed.Ch.Credits.CrossShard(e.CrossFlusher(cs))
	}
}

// IfaceBufFlits is every node interface's ejection buffer depth per VC: at
// least the largest packet size used (8 flits, the synthetic packet size).
const IfaceBufFlits = 8

// IfaceOptions are the knobs every topology passes through to its node
// interfaces.
type IfaceOptions struct {
	// DropProb enables the lossy-network model (§6.2 extension).
	DropProb float64
	// Seed seeds per-node loss RNG streams.
	Seed uint64
	// Mutate injects one-shot substrate faults into node MutateNode's
	// interface, for invariant-monitor validation (test-only).
	Mutate router.IfaceMutations
	// MutateNode selects the node whose interface receives Mutate.
	MutateNode int
	// Window is the conservative-sync window W the fabric is built for:
	// router-router channels are padded (router.NewChannelSync) so every
	// cross-router event lands at least W cycles after its send. 0 or 1 is
	// the unpadded model, a boundary after every cycle.
	Window int
	// Fabric configures the modern-fabric baselines (PFC, ECN, lossy wires);
	// topologies pass it to every router and interface. Seed drives the
	// lossy wires too (WireRNG), so one seed drives both loss models.
	Fabric router.FabricConfig
}

// SyncWindow reports the effective window (at least 1).
func (o IfaceOptions) SyncWindow() int {
	if o.Window < 1 {
		return 1
	}
	return o.Window
}

// LossRNG returns a per-node loss stream, or nil when the network is
// reliable.
func (o IfaceOptions) LossRNG(node uint64) *rng.Source {
	if o.DropProb <= 0 {
		return nil
	}
	return rng.NewStream(o.Seed^0x10551055, node)
}

// WireRNG returns a per-node wire-drop stream, salted away from LossRNG's,
// or nil when the access wires are reliable.
func (o IfaceOptions) WireRNG(node uint64) *rng.Source {
	if o.Fabric.WireDrop <= 0 {
		return nil
	}
	return rng.NewStream(o.Seed^0x77697265, node)
}
