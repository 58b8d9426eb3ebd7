package cshift

import (
	"strings"
	"testing"

	"nifdy/internal/apps/apptest"
	"nifdy/internal/node"
	"nifdy/internal/packet"
)

// oracleProgram is the closure program the step machine replaced, kept
// verbatim: TestMachineMatchesOracle holds the machine to its simulation.
func (a *App) oracleProgram(n int) node.Program {
	cfg := a.cfg
	return func(p *node.Proc) {
		expected := (cfg.Nodes - 1) * a.npkts
		count := func(*packet.Packet) { a.recvd[n]++ }
		for ph := 1; ph < cfg.Nodes; ph++ {
			dst := (n + ph) % cfg.Nodes
			a.layer.SendBlock(p, dst, cfg.BlockWords, count)
			if cfg.Barriers {
				p.Barrier(a.bar, count)
			}
		}
		// Final drain: every node must absorb its full inbound volume.
		for a.recvd[n] < expected {
			p.Recv()
			a.recvd[n]++
		}
	}
}

// TestMachineMatchesOracle runs C-shift as a step machine and as the closure
// it replaced, with and without barriers, in-order and generic packetization,
// and requires the same simulation, chunk for chunk, to completion.
func TestMachineMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		nifdy bool
	}{
		{"nifdy-barriers-inorder-bulk", Config{Nodes: 16, BlockWords: 60, Barriers: true, InOrder: true, Bulk: true}, true},
		{"nifdy-nobarriers", Config{Nodes: 16, BlockWords: 60, InOrder: true, Bulk: true}, true},
		{"basic-generic", Config{Nodes: 16, BlockWords: 60}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := apptest.Trace(t, New(tc.cfg, nil).Program, tc.nifdy, 2_000_000, 500)
			want := apptest.Trace(t, New(tc.cfg, nil).oracleProgram, tc.nifdy, 2_000_000, 500)
			if got != want {
				t.Fatalf("machine diverges from the closure oracle:\nmachine:\n%s\noracle:\n%s", got, want)
			}
			if !strings.HasSuffix(got, "finished=16\n") {
				t.Fatalf("run did not complete:\n%s", got)
			}
		})
	}
}
