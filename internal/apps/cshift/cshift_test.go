package cshift

import (
	"testing"

	"nifdy/internal/core"
	"nifdy/internal/nic"
	"nifdy/internal/node"
	"nifdy/internal/packet"
	"nifdy/internal/sim"
	"nifdy/internal/topo/fattree"
)

func TestPacketCountsPerBlock(t *testing.T) {
	inOrder := New(Config{Nodes: 16, BlockWords: 100, Words: 6, InOrder: true}, nil)
	generic := New(Config{Nodes: 16, BlockWords: 100, Words: 6}, nil)
	if inOrder.PacketsPerBlock() != 20 { // 100 / (6-1)
		t.Fatalf("in-order pkts = %d", inOrder.PacketsPerBlock())
	}
	if generic.PacketsPerBlock() != 25 { // 100 / (6-2)
		t.Fatalf("generic pkts = %d", generic.PacketsPerBlock())
	}
	if generic.PacketsPerBlock() <= inOrder.PacketsPerBlock() {
		t.Fatal("in-order delivery must reduce packet count")
	}
}

func TestTotalPackets(t *testing.T) {
	a := New(Config{Nodes: 4, BlockWords: 10, Words: 6, InOrder: true}, nil)
	// 4 nodes, 3 phases, 2 packets per block.
	if a.TotalPackets() != 4*3*2 {
		t.Fatalf("total = %d", a.TotalPackets())
	}
}

// runCShift executes a full run and returns the completion cycle.
func runCShift(t *testing.T, cfg Config, useNIFDY bool, maxCycles sim.Cycle) sim.Cycle {
	t.Helper()
	tree := fattree.New(fattree.Config{Levels: 2, Seed: 3}) // 16 nodes
	eng := sim.New()
	tree.RegisterRoutersSharded(eng, tree.Partition(1))
	var ids packet.IDSource
	app := New(cfg, &ids)
	var procs []*node.Proc
	for i := 0; i < 16; i++ {
		var nc nic.NIC
		if useNIFDY {
			nc = core.New(core.Config{Node: i, IDs: &ids, W: 4}, tree.Iface(i))
		} else {
			nc = nic.NewBasic(nic.BasicConfig{Node: i, OutBuf: 4, ArrBuf: 4}, tree.Iface(i))
		}
		eng.Register(nc)
		p := node.NewProc(i, nc, node.CM5Costs(), app.Program(i))
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
	if !eng.RunUntil(done, maxCycles) {
		t.Fatalf("C-shift did not complete in %d cycles", maxCycles)
	}
	return eng.Now()
}

func TestCompletesWithNIFDY(t *testing.T) {
	cfg := Config{Nodes: 16, BlockWords: 30, InOrder: true, Bulk: true}
	runCShift(t, cfg, true, 10_000_000)
}

func TestCompletesWithBasicNIC(t *testing.T) {
	cfg := Config{Nodes: 16, BlockWords: 30}
	runCShift(t, cfg, false, 10_000_000)
}

func TestCompletesWithBarriers(t *testing.T) {
	cfg := Config{Nodes: 16, BlockWords: 30, Barriers: true}
	runCShift(t, cfg, false, 20_000_000)
}

func TestInOrderFasterThanGeneric(t *testing.T) {
	// Same data volume; the in-order library needs fewer packets and skips
	// the software reorder penalty, so it must finish sooner on NIFDY.
	generic := runCShift(t, Config{Nodes: 16, BlockWords: 60, Bulk: true}, true, 20_000_000)
	inOrder := runCShift(t, Config{Nodes: 16, BlockWords: 60, InOrder: true, Bulk: true}, true, 20_000_000)
	if inOrder >= generic {
		t.Fatalf("in-order (%d) not faster than generic (%d)", inOrder, generic)
	}
}

func TestDefaults(t *testing.T) {
	a := New(Config{Nodes: 4}, nil)
	if a.cfg.BlockWords != 120 || a.cfg.Words != 6 {
		t.Fatalf("defaults: %+v", a.cfg)
	}
}
