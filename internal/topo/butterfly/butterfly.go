// Package butterfly implements indirect radix-k butterflies with adjustable
// dilation, covering the paper's butterfly (dilation 1, radix 4) and
// multibutterfly (dilation 2, radix 4) configurations (§3).
//
// A radix-k, n-stage butterfly serves k^n nodes with n stages of k^(n-1)
// routers. Destination-tag routing consumes the destination's base-k digits
// most-significant first: the router at stage s forwards on logical
// direction digit(dst, n-1-s). With dilation D every logical edge is D
// parallel channels and the router chooses adaptively among the copies —
// the multibutterfly's alternative paths, and its source of out-of-order
// delivery. Dilation 1 has exactly one path per pair and delivers in order.
package butterfly

import (
	"fmt"

	"nifdy/internal/packet"
	"nifdy/internal/rng"
	"nifdy/internal/router"
	"nifdy/internal/topo"
)

// Config sizes a butterfly.
type Config struct {
	// Radix is k; zero selects 4.
	Radix int
	// Stages is n; Radix^Stages nodes. Zero selects 3 (64 nodes at k=4).
	Stages int
	// Dilation is the parallel-channel count per logical edge; zero
	// selects 1. Use 2 for the paper's multibutterfly.
	Dilation int
	// BufFlits is the per-VC router buffer depth; zero selects 2.
	BufFlits int
	// VCs per class; zero selects 1 (the network is feed-forward).
	VCs int
	// CPF is the link serialization time per flit; zero selects 4.
	CPF int
	// Seed drives adaptive tie-breaking among dilated copies.
	Seed uint64
	// Iface carries node-interface options.
	Iface topo.IfaceOptions
}

func (c *Config) defaults() {
	if c.Radix == 0 {
		c.Radix = 4
	}
	if c.Stages == 0 {
		c.Stages = 3
	}
	if c.Dilation == 0 {
		c.Dilation = 1
	}
	if c.BufFlits == 0 {
		c.BufFlits = 2
	}
	if c.VCs == 0 {
		c.VCs = 1
	}
	if c.CPF == 0 {
		c.CPF = 4
	}
}

// Fly is a butterfly network. Router (s,r) has flat key s*perStage+r.
type Fly struct {
	topo.Base
	cfg      Config
	perStage int
}

// New builds the network.
func New(cfg Config) *Fly {
	cfg.defaults()
	f := &Fly{cfg: cfg, perStage: pow(cfg.Radix, cfg.Stages-1)}
	f.Base = topo.Base{Opts: cfg.Iface, Align: cfg.Radix, Home: f.home}
	f.build(pow(cfg.Radix, cfg.Stages))
	return f
}

// home places router key (s,r) with the node group at its position: node
// group nd/k = r holds the routers a node injects into (stage 0) and ejects
// from (stage n-1), so those links stay shard-internal; middle stages
// inherit the same spread.
func (f *Fly) home(key int) int { return key % f.perStage * f.cfg.Radix }

func pow(b, e int) int {
	r := 1
	for i := 0; i < e; i++ {
		r *= b
	}
	return r
}

func (f *Fly) digit(x, i int) int {
	for ; i > 0; i-- {
		x /= f.cfg.Radix
	}
	return x % f.cfg.Radix
}

func (f *Fly) setDigit(x, i, v int) int {
	p := pow(f.cfg.Radix, i)
	return x + (v-f.digit(x, i))*p
}

// Port layout: dir*Dilation + copy, for both inputs and outputs.
func (f *Fly) build(nodes int) {
	k, D, n := f.cfg.Radix, f.cfg.Dilation, f.cfg.Stages
	ports := k * D
	f.Routers = make([]*router.Router, 0, n*f.perStage)
	for s := 0; s < n; s++ {
		for r := 0; r < f.perStage; r++ {
			id := len(f.Routers)
			f.Routers = append(f.Routers, router.New(router.Config{
				ID: id, InPorts: ports, OutPorts: ports,
				VCs: f.cfg.VCs, BufFlits: f.cfg.BufFlits,
				Route: func(in int, p *packet.Packet, sc []router.Choice) []router.Choice {
					return f.route(s, p, sc)
				},
				RNG:    rng.NewStream(f.cfg.Seed^0xB07F1E, uint64(id)),
				Fabric: f.Opts.Fabric,
			}))
		}
	}
	f.NewIfaces(nodes, f.cfg.VCs)
	for nd, ifc := range f.Ifaces {
		// Injection into stage 0, ejection from stage n-1; port dir = the
		// node's lowest digit, copy 0.
		first, last := nd/k, (n-1)*f.perStage+nd/k
		port := (nd % k) * D
		up := router.NewChannel(f.cfg.CPF, 1)
		ifc.ConnectOut(up, f.cfg.BufFlits)
		f.Routers[first].ConnectIn(port, up)
		down := router.NewChannel(f.cfg.CPF, 1)
		f.Routers[last].ConnectOut(port, down, topo.IfaceBufFlits)
		ifc.ConnectIn(down)
		f.Edges = append(f.Edges,
			topo.Edge{Ch: up, From: -(nd + 1), To: first},
			topo.Edge{Ch: down, From: last, To: -(nd + 1)})
	}
	// Inter-stage wiring: stage s router r, direction j, copy c connects to
	// stage s+1 router r' = r with digit (n-2-s) replaced by j, input port
	// dir*D+c where dir at the receiver is the replaced digit's old value.
	for s := 0; s+1 < n; s++ {
		for r := 0; r < f.perStage; r++ {
			for j := 0; j < k; j++ {
				from := s*f.perStage + r
				to := (s+1)*f.perStage + f.setDigit(r, n-2-s, j)
				inDir := f.digit(r, n-2-s)
				// Inter-stage channels carry the conservative-sync padding
				// (access channels never cross shards: a node and its stage
				// 0 / n-1 routers co-locate under the aligned partition).
				for c := 0; c < D; c++ {
					ch := router.NewChannelSync(f.cfg.CPF, 1, f.SyncWindow())
					f.Routers[from].ConnectOut(j*D+c, ch, f.cfg.BufFlits)
					f.Routers[to].ConnectIn(inDir*D+c, ch)
					f.Edges = append(f.Edges, topo.Edge{Ch: ch, From: from, To: to})
				}
			}
		}
	}
}

// route returns the dilated copies of the single logical direction the
// destination tag selects at this stage.
func (f *Fly) route(stage int, p *packet.Packet, sc []router.Choice) []router.Choice {
	dir := f.digit(p.Dst, f.cfg.Stages-1-stage)
	if stage == f.cfg.Stages-1 {
		// Ejection: copy 0 carries the node link.
		return append(sc, router.Choice{Port: dir * f.cfg.Dilation})
	}
	for c := 0; c < f.cfg.Dilation; c++ {
		sc = append(sc, router.Choice{Port: dir*f.cfg.Dilation + c})
	}
	return sc
}

// Chars implements topo.Network.
func (f *Fly) Chars() topo.Characteristics {
	name := "butterfly"
	if f.cfg.Dilation > 1 {
		name = fmt.Sprintf("multibutterfly (dil %d)", f.cfg.Dilation)
	}
	c := topo.Characteristics{
		Name:    name,
		Nodes:   f.Nodes(),
		AvgHops: float64(f.cfg.Stages), // every packet crosses all stages
		MaxHops: f.cfg.Stages,
		InOrder: f.cfg.Dilation == 1,
	}
	ports := f.cfg.Radix * f.cfg.Dilation
	c.VolumeFlits = f.cfg.Stages * f.perStage * ports * packet.NumClasses * f.cfg.VCs * f.cfg.BufFlits
	// Bisection: the stage-0 outputs whose top destination digit lands in
	// the other half: half the directions of every stage-0 router, both
	// ways.
	cross := f.perStage * f.cfg.Radix * f.cfg.Dilation // = total stage0->1 links; half cross each way, so total crossing = half * 2 = same
	c.BisectionFPC = float64(cross) / float64(f.cfg.CPF)
	c.FabricFPC = float64(f.InternalLinks()) / float64(f.cfg.CPF)
	c.CPF = f.cfg.CPF
	c.HopLat = float64(f.cfg.CPF + 2) // header serialization + route/arbitrate
	return c
}
