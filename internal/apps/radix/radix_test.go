package radix

import (
	"testing"

	"nifdy/internal/core"
	"nifdy/internal/nic"
	"nifdy/internal/node"
	"nifdy/internal/packet"
	"nifdy/internal/sim"
	"nifdy/internal/topo/fattree"
)

func TestScanPacketCount(t *testing.T) {
	a := New(Config{Nodes: 8, Buckets: 256, Words: 6}, nil)
	// 256 buckets / 4 counts per packet = 64 packets.
	if a.ScanPackets() != 64 {
		t.Fatalf("K = %d", a.ScanPackets())
	}
}

func TestExpectConservation(t *testing.T) {
	a := New(Config{Nodes: 8, KeysPerNode: 100, Seed: 5}, nil)
	total := 0
	for _, e := range a.expect {
		total += e
	}
	if total != 8*100 {
		t.Fatalf("expected keys sum %d", total)
	}
}

func runPhase(t *testing.T, nodes int, program func(a *App, n int) node.Program,
	cfg Config, useNIFDY bool, max sim.Cycle) sim.Cycle {
	t.Helper()
	tree := fattree.New(fattree.Config{Levels: 2, Seed: 7})
	eng := sim.New()
	tree.RegisterRoutersSharded(eng, tree.Partition(1))
	var ids packet.IDSource
	cfg.Nodes = nodes
	app := New(cfg, &ids)
	var procs []*node.Proc
	for i := 0; i < nodes; i++ {
		var nc nic.NIC
		if useNIFDY {
			nc = core.New(core.Config{Node: i, IDs: &ids}, tree.Iface(i))
		} else {
			nc = nic.NewBasic(nic.BasicConfig{Node: i, OutBuf: 2, ArrBuf: 2}, tree.Iface(i))
		}
		eng.Register(nc)
		p := node.NewProc(i, nc, node.CM5Costs(), program(app, i))
		eng.Register(p)
		p.Start()
		procs = append(procs, p)
	}
	t.Cleanup(func() {
		for _, p := range procs {
			p.Stop()
		}
	})
	done := func() bool {
		for _, p := range procs {
			if !p.Done() {
				return false
			}
		}
		return true
	}
	if !eng.RunUntil(done, max) {
		t.Fatalf("phase did not complete in %d cycles", max)
	}
	return eng.Now()
}

func TestScanCompletes(t *testing.T) {
	runPhase(t, 16, func(a *App, n int) node.Program { return a.ScanProgram(n) },
		Config{Buckets: 64}, true, 10_000_000)
}

func TestScanWithDelayCompletes(t *testing.T) {
	runPhase(t, 16, func(a *App, n int) node.Program { return a.ScanProgram(n) },
		Config{Buckets: 64, Delay: 60}, false, 10_000_000)
}

func TestDelayHelpsWithoutNIFDY(t *testing.T) {
	// The paper's Figure 9 effect: inserting delays between consecutive
	// sends speeds the scan when there is no NIFDY to pace the pipeline.
	noDelay := runPhase(t, 16, func(a *App, n int) node.Program { return a.ScanProgram(n) },
		Config{Buckets: 128}, false, 30_000_000)
	delay := runPhase(t, 16, func(a *App, n int) node.Program { return a.ScanProgram(n) },
		Config{Buckets: 128, Delay: 60}, false, 30_000_000)
	if delay >= noDelay {
		t.Fatalf("delay (%d) did not beat no-delay (%d) without NIFDY", delay, noDelay)
	}
}

func TestCoalesceCompletes(t *testing.T) {
	runPhase(t, 16, func(a *App, n int) node.Program { return a.CoalesceProgram(n) },
		Config{KeysPerNode: 40, Seed: 3}, true, 10_000_000)
}

func TestCoalesceCompletesWithoutNIFDY(t *testing.T) {
	runPhase(t, 16, func(a *App, n int) node.Program { return a.CoalesceProgram(n) },
		Config{KeysPerNode: 40, Seed: 3}, false, 10_000_000)
}

func TestDefaults(t *testing.T) {
	a := New(Config{Nodes: 4}, nil)
	if a.cfg.Buckets != 256 || a.cfg.Words != 6 || a.cfg.KeysPerNode != 128 {
		t.Fatalf("defaults %+v", a.cfg)
	}
}
