// Package fattree implements k-ary n-tree fat trees: the paper's full 4-ary
// fat tree with 1-byte links (cut-through or store-and-forward), and the
// CM-5-like variant whose routers in the first two levels have two parents
// instead of four and whose 4-bit links are strictly time-multiplexed
// between the request and reply networks (§3).
//
// Construction (k-ary n-tree): N = k^n nodes labeled by n base-k digits.
// Routers live at levels 0 (leaf, attached to nodes) through n-1 (top), with
// k^(n-1) router positions per level addressed by n-1 base-k digits. Router
// (l, w) connects upward to the k routers (l+1, w[l]:=m); its k down ports
// reach (l-1, w[l-1]:=m), or node w*k+m at level 0. Upward routing is
// adaptive (any parent — the source of out-of-order delivery on this
// fabric); downward routing is determined by the destination's digits.
package fattree

import (
	"fmt"

	"nifdy/internal/packet"
	"nifdy/internal/rng"
	"nifdy/internal/router"
	"nifdy/internal/topo"
)

// Variant selects the fat-tree flavour.
type Variant int

const (
	// Full is the full 4-ary fat tree with 1-byte links and cut-through
	// routing.
	Full Variant = iota
	// StoreForward is the full fat tree with store-and-forward routers.
	StoreForward
	// CM5 reduces levels 0 and 1 to two parents per router and halves link
	// width, with strict time multiplexing of the two logical networks.
	CM5
)

func (v Variant) String() string {
	switch v {
	case Full:
		return "fat tree (full)"
	case StoreForward:
		return "fat tree (store&forward)"
	case CM5:
		return "fat tree (CM-5)"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Config sizes a fat tree.
type Config struct {
	// Arity is k; zero selects 4.
	Arity int
	// Levels is n; Arity^Levels nodes. Zero selects 3 (64 nodes at k=4).
	Levels int
	// Variant selects Full, StoreForward, or CM5.
	Variant Variant
	// BufFlits is the per-VC router buffer depth. Zero selects 4 for
	// cut-through and 8 (a whole packet) for store-and-forward.
	BufFlits int
	// VCs per class. Zero selects 1 (up/down routing is deadlock-free).
	VCs int
	// Seed drives adaptive tie-breaking.
	Seed uint64
	// KillTopRouters disconnects this many top-level router positions,
	// modeling the hardware faults of §1.1 ("faults in the network may
	// restrict the available bandwidth"). Adaptive up-routing steers around
	// the dead positions automatically; connectivity is preserved as long
	// as at least one top router remains.
	KillTopRouters int
	// Iface carries node-interface options.
	Iface topo.IfaceOptions
}

func (c *Config) defaults() {
	if c.Arity == 0 {
		c.Arity = 4
	}
	if c.Levels == 0 {
		c.Levels = 3
	}
	if c.VCs == 0 {
		c.VCs = 1
	}
	if c.BufFlits == 0 {
		if c.Variant == StoreForward {
			c.BufFlits = 8
		} else {
			c.BufFlits = 4
		}
	}
}

// Tree is a fat-tree network. Router (l,w) has flat key l*perLevel+w.
type Tree struct {
	topo.Base
	cfg      Config
	perLevel int
	classes  int // physical channel copies per logical port (2 when time-muxed)
	cpf      int
}

// New builds the network.
func New(cfg Config) *Tree {
	cfg.defaults()
	t := &Tree{cfg: cfg}
	k := cfg.Arity
	t.Base = topo.Base{Opts: cfg.Iface, Align: k, Home: t.home}
	t.perLevel = pow(k, cfg.Levels-1)
	t.classes = 1
	t.cpf = 4 // 1-byte links
	if cfg.Variant == CM5 {
		// "The link bandwidth was reduced to 4 bits per cycle as in the
		// CM-5 network... each network is limited to eight bits every two
		// cycles" (§3): each logical network owns a private channel moving
		// 4 bits per cycle on average, i.e. 8 cycles per 32-bit flit.
		t.classes = packet.NumClasses
		t.cpf = 8
	}
	t.build(pow(k, cfg.Levels))
	return t
}

// home places router key r = (l,w): internal routers join the shard of their
// subtree's first leaf group (so a subtree entirely inside one shard keeps
// all its routers and links there); top-level routers are shared by every
// subtree, so they spread across shards by position.
func (t *Tree) home(r int) int {
	l, w := r/t.perLevel, r%t.perLevel
	if l < t.cfg.Levels-1 {
		w -= w % pow(t.cfg.Arity, l)
	}
	return w * t.cfg.Arity
}

func pow(b, e int) int {
	r := 1
	for i := 0; i < e; i++ {
		r *= b
	}
	return r
}

// parents reports how many up ports a router at level l has.
func (t *Tree) parents(l int) int {
	if l == t.cfg.Levels-1 {
		return 0
	}
	if t.cfg.Variant == CM5 && l <= 1 {
		return 2
	}
	return t.cfg.Arity
}

// digit returns digit i of w in base k.
func (t *Tree) digit(w, i int) int {
	for ; i > 0; i-- {
		w /= t.cfg.Arity
	}
	return w % t.cfg.Arity
}

// setDigit returns w with digit i replaced by v.
func (t *Tree) setDigit(w, i, v int) int {
	p := pow(t.cfg.Arity, i)
	return w + (v-t.digit(w, i))*p
}

// Logical port layout per router: 0..k-1 down, k..k+parents-1 up. The
// physical port index multiplies by t.classes and adds the class for the
// CM-5's strictly separated networks.
func (t *Tree) phys(logical int, class packet.Class) int {
	return logical*t.classes + int(class)%t.classes
}

func (t *Tree) build(nodes int) {
	k := t.cfg.Arity
	t.Routers = make([]*router.Router, 0, t.cfg.Levels*t.perLevel)
	for l := 0; l < t.cfg.Levels; l++ {
		ports := (k + t.parents(l)) * t.classes
		for w := 0; w < t.perLevel; w++ {
			id := len(t.Routers)
			t.Routers = append(t.Routers, router.New(router.Config{
				ID: id, InPorts: ports, OutPorts: ports,
				VCs: t.cfg.VCs, BufFlits: t.cfg.BufFlits,
				SAF:    t.cfg.Variant == StoreForward,
				Route:  func(in int, p *packet.Packet, s []router.Choice) []router.Choice { return t.route(l, w, p, s) },
				RNG:    rng.NewStream(t.cfg.Seed^0xFA77EE, uint64(id)),
				Fabric: t.Opts.Fabric,
			}))
		}
	}
	t.NewIfaces(nodes, t.cfg.VCs)
	for n, ifc := range t.Ifaces {
		leafKey := n / k
		leaf := t.Routers[leafKey]
		port := n % k
		for cl := 0; cl < t.classes; cl++ {
			up := router.NewChannel(t.cpf, 1)
			down := router.NewChannel(t.cpf, 1)
			pp := t.phys(port, packet.Class(cl))
			leaf.ConnectIn(pp, up)
			leaf.ConnectOut(pp, down, topo.IfaceBufFlits)
			t.Edges = append(t.Edges,
				topo.Edge{Ch: up, From: -(n + 1), To: leafKey},
				topo.Edge{Ch: down, From: leafKey, To: -(n + 1)})
			if t.classes == 1 {
				ifc.ConnectOut(up, t.cfg.BufFlits)
				ifc.ConnectIn(down)
			} else {
				ifc.ConnectOutClass(packet.Class(cl), up, t.cfg.BufFlits)
				ifc.ConnectInClass(packet.Class(cl), down)
			}
		}
	}
	// Top-level fault set: kill whole router positions spread across the
	// level (deterministic, so experiments are reproducible).
	dead := map[int]bool{}
	if t.cfg.KillTopRouters > 0 {
		kill := t.cfg.KillTopRouters
		if kill >= t.perLevel {
			kill = t.perLevel - 1 // keep the machine connected
		}
		for i := 0; i < kill; i++ {
			dead[(i*7)%t.perLevel] = true
		}
		// Connectivity check: every level n-2 router must keep at least one
		// live parent, or packets would wait forever on a route.
		if t.cfg.Levels >= 2 {
			for w := 0; w < t.perLevel; w++ {
				alive := 0
				for m := 0; m < t.parents(t.cfg.Levels-2); m++ {
					if !dead[t.setDigit(w, t.cfg.Levels-2, m)] {
						alive++
					}
				}
				if alive == 0 {
					panic(fmt.Sprintf("fattree: KillTopRouters=%d disconnects router (%d,%d)",
						t.cfg.KillTopRouters, t.cfg.Levels-2, w))
				}
			}
		}
	}
	// Inter-level links.
	for l := 0; l+1 < t.cfg.Levels; l++ {
		for w := 0; w < t.perLevel; w++ {
			loKey := l*t.perLevel + w
			lo := t.Routers[loKey]
			for m := 0; m < t.parents(l); m++ {
				wUp := t.setDigit(w, l, m)
				if l+1 == t.cfg.Levels-1 && dead[wUp] {
					continue // faulted top router: no links to it
				}
				hiKey := (l+1)*t.perLevel + wUp
				hi := t.Routers[hiKey]
				hiPort := t.digit(w, l) // down port on the parent selects digit l
				// Inter-level channels carry the conservative-sync padding
				// (access channels never cross shards: a node and its leaf
				// router co-locate under the aligned partition).
				for cl := 0; cl < t.classes; cl++ {
					up := router.NewChannelSync(t.cpf, 1, t.SyncWindow())
					lo.ConnectOut(t.phys(k+m, packet.Class(cl)), up, t.cfg.BufFlits)
					hi.ConnectIn(t.phys(hiPort, packet.Class(cl)), up)
					down := router.NewChannelSync(t.cpf, 1, t.SyncWindow())
					hi.ConnectOut(t.phys(hiPort, packet.Class(cl)), down, t.cfg.BufFlits)
					lo.ConnectIn(t.phys(k+m, packet.Class(cl)), down)
					t.Edges = append(t.Edges,
						topo.Edge{Ch: up, From: loKey, To: hiKey},
						topo.Edge{Ch: down, From: hiKey, To: loKey})
				}
			}
		}
	}
}

// route computes candidates at router (l, w).
func (t *Tree) route(l, w int, p *packet.Packet, s []router.Choice) []router.Choice {
	k := t.cfg.Arity
	// Does this router's subtree contain the destination? Digits of w at
	// positions >= l must equal the destination's digits at positions >= l+1.
	contains := true
	for i := l; i < t.cfg.Levels-1; i++ {
		if t.digit(w, i) != t.nodeDigit(p.Dst, i+1) {
			contains = false
			break
		}
	}
	if contains {
		down := t.nodeDigit(p.Dst, l)
		return append(s, router.Choice{Port: t.phys(down, p.Class)})
	}
	for m := 0; m < t.parents(l); m++ {
		s = append(s, router.Choice{Port: t.phys(k+m, p.Class)})
	}
	return s
}

// nodeDigit returns digit i of a node number in base k.
func (t *Tree) nodeDigit(n, i int) int {
	for ; i > 0; i-- {
		n /= t.cfg.Arity
	}
	return n % t.cfg.Arity
}

// Hops returns the router-to-router distance between nodes a and b: up to
// the nearest common ancestor level and back down.
func (t *Tree) Hops(a, b int) int {
	if a == b {
		return 0
	}
	h := 0
	for i := t.cfg.Levels - 1; i >= 1; i-- {
		if t.nodeDigit(a, i) != t.nodeDigit(b, i) {
			h = i
			break
		}
	}
	// Leaf router to level h and back: 2h router-router hops, plus the two
	// node links counted by convention as part of injection/ejection (the
	// paper counts router hops; d=6 max for the 64-node full tree = 2*3
	// router-level transitions). We count channel traversals between
	// routers: up h, down h, = 2h, plus 2 if same leaf router (h=0 -> 2... )
	if h == 0 {
		return 2 // via the shared leaf router: node->router->node
	}
	return 2*h + 2
}

// Chars implements topo.Network.
func (t *Tree) Chars() topo.Characteristics {
	c := topo.Characteristics{Nodes: t.Nodes(), Name: t.cfg.Variant.String(), InOrder: false}
	c.AvgHops, c.MaxHops = topo.HopStats(c.Nodes, t.Hops)
	vol := 0
	for l := 0; l < t.cfg.Levels; l++ {
		ports := (t.cfg.Arity + t.parents(l)) * t.classes
		vol += t.perLevel * ports * perPortClasses(t.classes) * t.cfg.VCs * t.cfg.BufFlits
	}
	c.VolumeFlits = vol
	// Bisection: the root-layer links, scaled by the fraction of router
	// positions actually reachable (the CM-5 variant's reduced parent
	// count leaves upper-level positions unused, shrinking the layer).
	usedFrac := 1.0
	for l := 0; l < t.cfg.Levels-2; l++ {
		usedFrac *= float64(t.parents(l)) / float64(t.cfg.Arity)
	}
	rootLinks := float64(t.perLevel*t.parents(t.cfg.Levels-2)*2) * usedFrac
	perChan := 1.0 / float64(t.cpf)
	c.BisectionFPC = rootLinks * perChan * float64(t.classes) / 2
	if t.cfg.Variant == CM5 {
		c.Name = "fat tree (CM-5)"
	}
	c.FabricFPC = float64(t.InternalLinks()) / float64(t.cpf)
	c.CPF = t.cpf
	c.HopLat = float64(t.cpf + 2) // header serialization + route/arbitrate
	if t.cfg.Variant == StoreForward {
		// A store-and-forward hop holds the whole packet before advancing:
		// the per-hop cost scales with packet length, so report it as a
		// per-flit term (plus route/arbitrate) rather than baking in one
		// packet size.
		c.HopLat = 2
		c.HopLatPerFlit = float64(t.cpf)
	}
	return c
}

// perPortClasses: when classes are physically separated (CM-5), each
// physical port carries one class; otherwise both share the port's VCs.
func perPortClasses(classes int) int {
	if classes > 1 {
		return 1
	}
	return packet.NumClasses
}
