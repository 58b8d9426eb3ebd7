package topo

import (
	"nifdy/internal/router"
	"nifdy/internal/sim"
)

// Base is the shape-independent half of a flit-accurate fabric: its node
// interfaces, its routers, the channels between them, and the placement
// that partitions them across engine shards. Mesh, fat tree and butterfly
// embed it and supply only their wiring and routing; Base implements every
// Network method but Chars, and WindowSized.
type Base struct {
	// Opts are the node-interface options the fabric was built with.
	Opts IfaceOptions
	// Ifaces holds node n's interface at index n.
	Ifaces []*router.Iface
	// Routers is every router, indexed by its flat key (the key Edges
	// uses); registration and audits walk it in key order.
	Routers []*router.Router
	// Edges are the channels that may cross a shard boundary. Endpoint keys:
	// router r -> r, node n -> -(n+1).
	Edges []Edge
	// Align is the leaf group Partition keeps within one shard.
	Align int
	// Home maps router r to the node whose shard it joins.
	Home func(r int) int
}

// NewIfaces builds one interface per node with vcs virtual channels per
// class, configured from Opts.
func (b *Base) NewIfaces(nodes, vcs int) {
	b.Ifaces = make([]*router.Iface, nodes)
	for n := range b.Ifaces {
		cfg := router.IfaceConfig{
			Node: n, VCs: vcs, BufFlits: IfaceBufFlits,
			DropProb: b.Opts.DropProb,
			RNG:      b.Opts.LossRNG(uint64(n)),
			WireRNG:  b.Opts.WireRNG(uint64(n)),
			Fabric:   b.Opts.Fabric,
		}
		if n == b.Opts.MutateNode {
			cfg.Mutate = b.Opts.Mutate
		}
		b.Ifaces[n] = router.NewIface(cfg)
	}
}

// Nodes implements Network.
func (b *Base) Nodes() int { return len(b.Ifaces) }

// Iface implements Network.
func (b *Base) Iface(n int) router.Port { return b.Ifaces[n] }

// Partition implements Network: contiguous node blocks aligned to Align.
func (b *Base) Partition(shards int) []int {
	return AlignedPartition(len(b.Ifaces), b.Align, shards)
}

// RegisterRoutersSharded implements Network: router r joins the shard of
// node Home(r), and every edge whose endpoints resolve, through the same
// Home, to different shards becomes a staged cross-shard edge.
func (b *Base) RegisterRoutersSharded(e *sim.Engine, shardOf []int) {
	for r, rt := range b.Routers {
		e.RegisterSharded(shardOf[b.Home(r)], rt)
	}
	MarkCross(e, b.Edges, func(key int) int {
		if key < 0 {
			return shardOf[-key-1]
		}
		return shardOf[b.Home(key)]
	})
}

// AuditRouters implements Network.
func (b *Base) AuditRouters(f func(*router.Router)) {
	for _, r := range b.Routers {
		f(r)
	}
}

// BufferedFlits implements Network.
func (b *Base) BufferedFlits() int {
	total := 0
	for _, r := range b.Routers {
		total += r.BufferedFlits()
	}
	return total
}

// SyncWindow implements WindowSized: router-router channels are padded for
// the configured window.
func (b *Base) SyncWindow() int { return b.Opts.SyncWindow() }

// InternalLinks counts the router-to-router channels (access channels
// excluded), the links Characteristics.FabricFPC sums over.
func (b *Base) InternalLinks() int {
	n := 0
	for _, ed := range b.Edges {
		if ed.From >= 0 && ed.To >= 0 {
			n++
		}
	}
	return n
}

// HopStats returns the mean and maximum of hops(a, b) over all ordered pairs
// of distinct nodes.
func HopStats(nodes int, hops func(a, b int) int) (avg float64, maxHops int) {
	total, pairs := 0, 0
	for a := 0; a < nodes; a++ {
		for b := 0; b < nodes; b++ {
			if a == b {
				continue
			}
			h := hops(a, b)
			total += h
			pairs++
			if h > maxHops {
				maxHops = h
			}
		}
	}
	return float64(total) / float64(pairs), maxHops
}
