package em3d

import (
	"testing"

	"nifdy/internal/core"
	"nifdy/internal/node"
	"nifdy/internal/packet"
	"nifdy/internal/sim"
	"nifdy/internal/topo/mesh"
)

func TestGraphGenerationDeterministic(t *testing.T) {
	a := New(Config{Nodes: 16, NNodes: 50, DNodes: 5, LocalP: 50, DistSpan: 3, Seed: 9}, nil)
	b := New(Config{Nodes: 16, NNodes: 50, DNodes: 5, LocalP: 50, DistSpan: 3, Seed: 9}, nil)
	if a.RemoteEdges() != b.RemoteEdges() || a.PacketsPerIteration() != b.PacketsPerIteration() {
		t.Fatal("graph generation not deterministic")
	}
	c := New(Config{Nodes: 16, NNodes: 50, DNodes: 5, LocalP: 50, DistSpan: 3, Seed: 10}, nil)
	if a.RemoteEdges() == c.RemoteEdges() {
		t.Fatal("different seeds produced identical graphs (unlikely)")
	}
}

func TestLocalPControlsVolume(t *testing.T) {
	local := New(Config{Nodes: 16, NNodes: 100, DNodes: 10, LocalP: 80, DistSpan: 5, Seed: 1}, nil)
	remote := New(Config{Nodes: 16, NNodes: 100, DNodes: 10, LocalP: 3, DistSpan: 5, Seed: 1}, nil)
	if remote.RemoteEdges() <= 3*local.RemoteEdges() {
		t.Fatalf("local_p=3 edges (%d) not >> local_p=80 edges (%d)",
			remote.RemoteEdges(), local.RemoteEdges())
	}
	// Expectations: ~20% vs ~97% of 16*100*10 edges.
	total := 16 * 100 * 10
	if got := float64(local.RemoteEdges()) / float64(total); got < 0.15 || got > 0.25 {
		t.Fatalf("local_p=80 remote fraction %.2f", got)
	}
	if got := float64(remote.RemoteEdges()) / float64(total); got < 0.92 {
		t.Fatalf("local_p=3 remote fraction %.2f", got)
	}
}

func TestDistSpanRespected(t *testing.T) {
	a := New(Config{Nodes: 64, NNodes: 50, DNodes: 10, LocalP: 0, DistSpan: 5, Seed: 2}, nil)
	for i, m := range a.sendWords {
		for dst := range m {
			d := (dst - i + 64) % 64
			if d > 5 && d < 59 {
				t.Fatalf("proc %d has neighbor %d outside span 5", i, dst)
			}
		}
	}
}

func TestInOrderNeedsFewerPackets(t *testing.T) {
	g := New(Config{Nodes: 16, NNodes: 100, DNodes: 10, LocalP: 20, DistSpan: 4, Seed: 3}, nil)
	io := New(Config{Nodes: 16, NNodes: 100, DNodes: 10, LocalP: 20, DistSpan: 4, Seed: 3, InOrder: true}, nil)
	if io.PacketsPerIteration() >= g.PacketsPerIteration() {
		t.Fatalf("in-order %d >= generic %d packets/iter",
			io.PacketsPerIteration(), g.PacketsPerIteration())
	}
}

func TestIterationCompletes(t *testing.T) {
	net := mesh.New(mesh.Config{Dims: []int{4, 4}})
	eng := sim.New()
	net.RegisterRoutersSharded(eng, net.Partition(1))
	var ids packet.IDSource
	app := New(Config{Nodes: 16, NNodes: 20, DNodes: 4, LocalP: 50, DistSpan: 3,
		Iters: 2, InOrder: true, Seed: 4}, &ids)
	var procs []*node.Proc
	for i := 0; i < 16; i++ {
		u := core.New(core.Config{Node: i, IDs: &ids}, net.Iface(i))
		eng.Register(u)
		p := node.NewProc(i, u, node.CM5Costs(), app.Program(i))
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
	if !eng.RunUntil(done, 20_000_000) {
		t.Fatal("EM3D iterations did not complete")
	}
	// Conservation: every node received exactly its expected volume.
	for i := 0; i < 16; i++ {
		if app.recvd[i] != app.cfg.Iters*app.expect[i] {
			t.Fatalf("node %d received %d, want %d", i, app.recvd[i], app.cfg.Iters*app.expect[i])
		}
	}
}

func TestPresetConfigs(t *testing.T) {
	l := Light(64, 1)
	if l.NNodes != 200 || l.DNodes != 10 || l.LocalP != 80 || l.DistSpan != 5 {
		t.Fatalf("light preset %+v", l)
	}
	h := Heavy(64, 1)
	if h.NNodes != 100 || h.DNodes != 20 || h.LocalP != 3 || h.DistSpan != 20 {
		t.Fatalf("heavy preset %+v", h)
	}
}
