package traffic

import (
	"testing"

	"nifdy/internal/core"
	"nifdy/internal/nic"
	"nifdy/internal/node"
	"nifdy/internal/packet"
	"nifdy/internal/sim"
	"nifdy/internal/topo/mesh"
)

func TestHeavyConfig(t *testing.T) {
	c := Heavy(64, 1)
	if c.SendProb != 1.0 || c.Nodes != 64 {
		t.Fatalf("heavy: %+v", c)
	}
	for _, l := range c.Lengths {
		if l.Packets < 1 || l.Packets > 5 {
			t.Fatalf("heavy length %d outside [1,5]", l.Packets)
		}
	}
}

func TestLightConfigHasLongMessages(t *testing.T) {
	c := Light(64, 1)
	if c.SendProb >= 0.5 {
		t.Fatalf("light send prob %v", c.SendProb)
	}
	max := 0
	for _, l := range c.Lengths {
		if l.Packets > max {
			max = l.Packets
		}
	}
	if max != 20 {
		t.Fatalf("light max length %d, want 20", max)
	}
	if c.IgnoreProb <= 0 {
		t.Fatal("light traffic needs non-responsive periods")
	}
}

// run wires a tiny mesh with NIFDY NICs and runs the generator.
func run(t *testing.T, cfg Config, cycles sim.Cycle) int64 {
	t.Helper()
	net := mesh.New(mesh.Config{Dims: []int{4, 4}})
	eng := sim.New()
	net.RegisterRoutersSharded(eng, net.Partition(1))
	var ids packet.IDSource
	gen := NewGen(cfg, &ids)
	var procs []*node.Proc
	var accepted func() int64
	nics := make([]*core.NIFDY, 16)
	for i := 0; i < 16; i++ {
		nics[i] = core.New(core.Config{Node: i, IDs: &ids}, net.Iface(i))
		eng.Register(nics[i])
		p := node.NewProc(i, nics[i], node.CM5Costs(), gen.Program(i))
		eng.Register(p)
		p.Start()
		procs = append(procs, p)
	}
	t.Cleanup(func() {
		for _, p := range procs {
			p.Stop()
		}
	})
	accepted = func() int64 {
		var tot int64
		for _, n := range nics {
			tot += n.Stats().Accepted
		}
		return tot
	}
	eng.Run(cycles)
	return accepted()
}

func TestHeavyTrafficDeliversPackets(t *testing.T) {
	cfg := Heavy(16, 5)
	cfg.Phases = 1 << 20
	cfg.PacketsPerPhase = 50
	if got := run(t, cfg, 100_000); got < 100 {
		t.Fatalf("delivered only %d packets", got)
	}
}

func TestLightTrafficDeliversFewer(t *testing.T) {
	mk := func(heavy bool) int64 {
		var cfg Config
		if heavy {
			cfg = Heavy(16, 5)
		} else {
			cfg = Light(16, 5)
		}
		cfg.Phases = 1 << 20
		cfg.PacketsPerPhase = 50
		return run(t, cfg, 100_000)
	}
	h, l := mk(true), mk(false)
	if l >= h {
		t.Fatalf("light (%d) delivered as much as heavy (%d)", l, h)
	}
	if l == 0 {
		t.Fatal("light traffic delivered nothing")
	}
}

func TestDeterministicBurstSequence(t *testing.T) {
	// The same seed must produce the same delivered count on the same
	// network/NIC configuration.
	cfg := Heavy(16, 9)
	cfg.Phases = 1 << 20
	a := run(t, cfg, 50_000)
	b := run(t, cfg, 50_000)
	if a != b {
		t.Fatalf("non-deterministic: %d vs %d", a, b)
	}
}

func TestPhasesRespectBarriers(t *testing.T) {
	// With a tiny per-phase quota and finite phases, all programs finish
	// and the total sent equals nodes * phases * quota (every node sends in
	// heavy traffic).
	net := mesh.New(mesh.Config{Dims: []int{4, 4}})
	eng := sim.New()
	net.RegisterRoutersSharded(eng, net.Partition(1))
	var ids packet.IDSource
	cfg := Heavy(16, 11)
	cfg.Phases = 2
	cfg.PacketsPerPhase = 10
	gen := NewGen(cfg, &ids)
	var procs []*node.Proc
	var sent int64
	nics := make([]*core.NIFDY, 16)
	for i := 0; i < 16; i++ {
		nics[i] = core.New(core.Config{Node: i, IDs: &ids}, net.Iface(i))
		eng.Register(nics[i])
		p := node.NewProc(i, nics[i], node.CM5Costs(), gen.Program(i))
		eng.Register(p)
		p.Start()
		procs = append(procs, p)
	}
	defer func() {
		for _, p := range procs {
			p.Stop()
		}
	}()
	done := func() bool {
		for _, p := range procs {
			if !p.Done() {
				return false
			}
		}
		return true
	}
	if !eng.RunUntil(done, 5_000_000) {
		t.Fatal("phased traffic did not finish")
	}
	for _, n := range nics {
		sent += n.Stats().Sent
	}
	// Quota is a lower bound: a node finishing a message may overshoot by
	// up to the message length - 1.
	if sent < 16*2*10 {
		t.Fatalf("sent %d < %d", sent, 16*2*10)
	}
	if sent > 16*2*(10+4) {
		t.Fatalf("sent %d overshoots quota wildly", sent)
	}
}

func TestHotspotSkewsDestinations(t *testing.T) {
	// Count destination picks from the generator's own stream logic by
	// running a short sim and inspecting per-node accepted counts.
	cfg := Heavy(16, 21)
	cfg.Phases = 1 << 20
	cfg.HotspotProb = 0.5
	cfg.HotspotNode = 3
	net := mesh.New(mesh.Config{Dims: []int{4, 4}})
	eng := sim.New()
	net.RegisterRoutersSharded(eng, net.Partition(1))
	var ids packet.IDSource
	gen := NewGen(cfg, &ids)
	hot := 0
	total := 0
	hooks := nic.Hooks{OnSend: func(p *packet.Packet) {
		total++
		if p.Dst == 3 {
			hot++
		}
	}}
	var procs []*node.Proc
	for i := 0; i < 16; i++ {
		u := core.New(core.Config{Node: i, IDs: &ids, Hooks: hooks}, net.Iface(i))
		eng.Register(u)
		p := node.NewProc(i, u, node.CM5Costs(), gen.Program(i))
		eng.Register(p)
		p.Start()
		procs = append(procs, p)
	}
	defer func() {
		for _, p := range procs {
			p.Stop()
		}
	}()
	eng.Run(40_000)
	if total == 0 {
		t.Fatal("no traffic")
	}
	share := float64(hot) / float64(total)
	if share < 0.3 || share > 0.7 {
		t.Fatalf("hotspot share %.2f of %d packets, want ~0.5", share, total)
	}
}
