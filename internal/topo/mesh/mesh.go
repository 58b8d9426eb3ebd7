// Package mesh implements two- and three-dimensional meshes and tori with
// wormhole routing, dimension-order (e-cube) routing, and virtual channels,
// matching the simulator options of the paper (§3): run-time size in each
// dimension, virtual channel count, buffer sizes, and 1-byte-wide links.
//
// Tori use the comparison/dateline virtual-channel discipline to stay
// deadlock-free: within each unidirectional ring a packet uses VC 0 while a
// wraparound still lies ahead and VC 1 afterwards, which makes the channel
// dependency graph acyclic. Meshes are deadlock-free under dimension-order
// routing with any VC count; the paper notes multiple VCs are "not needed
// because it is a mesh, not a torus" (§2.4.3), so the default is one.
package mesh

import (
	"fmt"

	"nifdy/internal/packet"
	"nifdy/internal/rng"
	"nifdy/internal/router"
	"nifdy/internal/topo"
)

// Config sizes a mesh or torus.
type Config struct {
	// Dims are the sizes of each dimension. Two or three dimensions cover
	// the paper's fabrics; higher dimensionality is supported too — a
	// binary hypercube is Dims = [2,2,2,...] as a mesh (each dimension of
	// size 2 needs no wraparound).
	Dims []int
	// Torus selects wraparound links.
	Torus bool
	// VCs is the virtual channel count per logical network class. Tori
	// require at least 2 (enforced).
	VCs int
	// BufFlits is the per-VC router buffer depth; the paper's mesh holds
	// "at most two flits" per buffer (§2.4.3). Zero selects 2.
	BufFlits int
	// CPF is the link serialization time per flit in cycles; zero selects 4
	// (one 32-bit flit over a 1-byte link).
	CPF int
	// Adaptive enables minimal adaptive routing on 2-D meshes using the
	// west-first turn model (deadlock-free with a single virtual channel):
	// all required -X hops are taken first, after which the router chooses
	// adaptively among the remaining minimal directions. This is the §6.3
	// future-work study — adaptive routing can reorder packets, so it pairs
	// naturally with NIFDY's hardware reordering. Only valid for 2-D,
	// non-torus meshes.
	Adaptive bool
	// Seed drives adaptive tie-breaking (used only when Adaptive is set).
	Seed uint64
	// Iface carries the node-interface options.
	Iface topo.IfaceOptions
}

func (c *Config) defaults() {
	if c.BufFlits == 0 {
		c.BufFlits = 2
	}
	if c.CPF == 0 {
		c.CPF = 4
	}
	if c.VCs == 0 {
		c.VCs = 1
	}
	if c.Torus && c.VCs < 2 {
		c.VCs = 2
	}
}

// Mesh is a mesh or torus network. Router n serves node n, so each router
// is its own home and partitions need no alignment; Edges holds only the
// router↔router channels (node n's access channels stay inside its shard).
type Mesh struct {
	topo.Base
	cfg     Config
	strides []int
}

// New builds the network.
func New(cfg Config) *Mesh {
	cfg.defaults()
	if len(cfg.Dims) < 2 {
		panic(fmt.Sprintf("mesh: %d dimensions", len(cfg.Dims)))
	}
	if cfg.Adaptive && (cfg.Torus || len(cfg.Dims) != 2) {
		panic("mesh: adaptive (west-first) routing requires a 2-D non-torus mesh")
	}
	m := &Mesh{cfg: cfg}
	nodes := 1
	for _, d := range cfg.Dims {
		if d < 2 {
			panic("mesh: dimension size < 2")
		}
		m.strides = append(m.strides, nodes)
		nodes *= d
	}
	m.Base = topo.Base{Opts: cfg.Iface, Align: 1, Home: func(r int) int { return r }}
	m.build(nodes)
	return m
}

// Port layout: 0 = local; for dimension d, 1+2d = plus direction,
// 2+2d = minus direction.
func plusPort(d int) int  { return 1 + 2*d }
func minusPort(d int) int { return 2 + 2*d }

func (m *Mesh) coord(n, d int) int { return (n / m.strides[d]) % m.cfg.Dims[d] }

func (m *Mesh) build(nodes int) {
	ports := 1 + 2*len(m.cfg.Dims)
	m.NewIfaces(nodes, m.cfg.VCs)
	m.Routers = make([]*router.Router, nodes)
	for n := range m.Routers {
		rcfg := router.Config{
			ID: n, InPorts: ports, OutPorts: ports,
			VCs: m.cfg.VCs, BufFlits: m.cfg.BufFlits,
			Route: func(in int, p *packet.Packet, s []router.Choice) []router.Choice {
				return m.route(n, p, s)
			},
			Fabric: m.cfg.Iface.Fabric,
		}
		if m.cfg.Adaptive {
			rcfg.RNG = rng.NewStream(m.cfg.Seed^0xADA57, uint64(n))
		}
		m.Routers[n] = router.New(rcfg)
	}
	for n, ifc := range m.Ifaces {
		up := router.NewChannel(m.cfg.CPF, 1)
		ifc.ConnectOut(up, m.cfg.BufFlits)
		m.Routers[n].ConnectIn(0, up)
		down := router.NewChannel(m.cfg.CPF, 1)
		m.Routers[n].ConnectOut(0, down, topo.IfaceBufFlits)
		ifc.ConnectIn(down)
	}
	// Router-router channels carry the conservative-sync padding (access
	// channels above never cross shards: a node and its router co-locate).
	w := m.SyncWindow()
	for n := 0; n < nodes; n++ {
		for d := range m.cfg.Dims {
			c := m.coord(n, d)
			if c+1 < m.cfg.Dims[d] || m.cfg.Torus {
				nb := n + ((c+1)%m.cfg.Dims[d]-c)*m.strides[d]
				ch := router.NewChannelSync(m.cfg.CPF, 1, w)
				m.Routers[n].ConnectOut(plusPort(d), ch, m.cfg.BufFlits)
				m.Routers[nb].ConnectIn(minusPort(d), ch)
				m.Edges = append(m.Edges, topo.Edge{Ch: ch, From: n, To: nb})
			}
			if c > 0 || m.cfg.Torus {
				nb := n + ((c-1+m.cfg.Dims[d])%m.cfg.Dims[d]-c)*m.strides[d]
				ch := router.NewChannelSync(m.cfg.CPF, 1, w)
				m.Routers[n].ConnectOut(minusPort(d), ch, m.cfg.BufFlits)
				m.Routers[nb].ConnectIn(plusPort(d), ch)
				m.Edges = append(m.Edges, topo.Edge{Ch: ch, From: n, To: nb})
			}
		}
	}
}

// route implements dimension-order routing with the torus dateline VC rule,
// or west-first minimal adaptive routing when configured.
func (m *Mesh) route(at int, p *packet.Packet, s []router.Choice) []router.Choice {
	if m.cfg.Adaptive {
		return m.routeWestFirst(at, p, s)
	}
	for d := range m.cfg.Dims {
		cur, dst := m.coord(at, d), m.coord(p.Dst, d)
		if cur == dst {
			continue
		}
		size := m.cfg.Dims[d]
		var plus bool
		if !m.cfg.Torus {
			plus = dst > cur
		} else {
			fwd := (dst - cur + size) % size
			plus = fwd <= size-fwd // ties go to plus deterministically
		}
		port := plusPort(d)
		if !plus {
			port = minusPort(d)
		}
		if !m.cfg.Torus {
			return append(s, router.Choice{Port: port})
		}
		// Dateline rule within the chosen unidirectional ring: VC 0 while a
		// wrap lies ahead, VC 1 after (or if no wrap is needed).
		wrapAhead := (plus && dst < cur) || (!plus && dst > cur)
		vc := 1
		if wrapAhead {
			vc = 0
		}
		return append(s, router.Choice{Port: port, VCs: dlVC(vc)})
	}
	return append(s, router.Choice{Port: 0})
}

var dlVCs = [2][]int{{0}, {1}}

func dlVC(v int) []int { return dlVCs[v] }

// routeWestFirst implements the west-first turn model on a 2-D mesh: if any
// -X hops remain they must all be taken first (no turns into west are ever
// needed afterwards); otherwise the packet may choose adaptively among the
// remaining minimal directions (+X, +Y, -Y). Prohibiting only the two turns
// into the west direction leaves the channel dependency graph acyclic, so
// the fabric is deadlock-free with a single virtual channel while offering
// multiple paths — and therefore out-of-order delivery for NIFDY to repair.
func (m *Mesh) routeWestFirst(at int, p *packet.Packet, s []router.Choice) []router.Choice {
	cx, cy := m.coord(at, 0), m.coord(at, 1)
	dx, dy := m.coord(p.Dst, 0)-cx, m.coord(p.Dst, 1)-cy
	if dx < 0 {
		return append(s, router.Choice{Port: minusPort(0)})
	}
	if dx == 0 && dy == 0 {
		return append(s, router.Choice{Port: 0})
	}
	if dx > 0 {
		s = append(s, router.Choice{Port: plusPort(0)})
	}
	if dy > 0 {
		s = append(s, router.Choice{Port: plusPort(1)})
	} else if dy < 0 {
		s = append(s, router.Choice{Port: minusPort(1)})
	}
	return s
}

// Hops returns the router-to-router distance between nodes a and b.
func (m *Mesh) Hops(a, b int) int {
	h := 0
	for d := range m.cfg.Dims {
		ca, cb := m.coord(a, d), m.coord(b, d)
		diff := ca - cb
		if diff < 0 {
			diff = -diff
		}
		if m.cfg.Torus && m.cfg.Dims[d]-diff < diff {
			diff = m.cfg.Dims[d] - diff
		}
		h += diff
	}
	return h
}

// Chars implements topo.Network.
func (m *Mesh) Chars() topo.Characteristics {
	c := topo.Characteristics{Nodes: m.Nodes(), InOrder: !m.cfg.Adaptive}
	kind := "mesh"
	if m.cfg.Torus {
		kind = "torus"
	}
	c.Name = fmt.Sprintf("%s%v", kind, m.cfg.Dims)
	if m.cfg.Adaptive {
		c.Name += " adaptive"
	}
	c.AvgHops, c.MaxHops = topo.HopStats(c.Nodes, m.Hops)
	// Volume: per router, non-local input ports x all VCs x depth.
	perRouter := 2 * len(m.cfg.Dims) * packet.NumClasses * m.cfg.VCs * m.cfg.BufFlits
	c.VolumeFlits = perRouter * c.Nodes
	// Bisection: cut the largest dimension in half; count unidirectional
	// links crossing (x2 for torus wrap links).
	maxSize := 0
	for _, sz := range m.cfg.Dims {
		if sz > maxSize {
			maxSize = sz
		}
	}
	cross := 2 * c.Nodes / maxSize // both directions of one cut plane
	if m.cfg.Torus {
		cross *= 2
	}
	c.BisectionFPC = float64(cross) / float64(m.cfg.CPF)
	c.FabricFPC = float64(m.InternalLinks()) / float64(m.cfg.CPF)
	c.CPF = m.cfg.CPF
	c.HopLat = float64(m.cfg.CPF + 2) // header serialization + route/arbitrate
	return c
}
