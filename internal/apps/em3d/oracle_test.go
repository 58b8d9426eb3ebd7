package em3d

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
	// Deterministic destination order: ascending offset from self.
	var order []int
	for off := 1; off < cfg.Nodes; off++ {
		dst := (n + off) % cfg.Nodes
		if a.sendWords[n][dst] > 0 {
			order = append(order, dst)
		}
	}
	return func(p *node.Proc) {
		count := func(*packet.Packet) { a.recvd[n]++ }
		for it := 0; it < cfg.Iters; it++ {
			for _, dst := range order {
				a.layer.SendBlock(p, dst, a.sendWords[n][dst], count)
			}
			// Absorb this iteration's inbound volume, then synchronize.
			for a.recvd[n] < (it+1)*a.expect[n] {
				p.Recv()
				a.recvd[n]++
			}
			p.Barrier(a.bar, count)
		}
	}
}

// TestMachineMatchesOracle runs EM3D as a step machine and as the closure it
// replaced, on a mostly-local and an almost-all-remote graph, and requires
// the same simulation, chunk for chunk, to completion.
func TestMachineMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		nifdy bool
	}{
		{"nifdy-local-inorder-bulk", Config{Nodes: 16, NNodes: 40, DNodes: 5, LocalP: 80, DistSpan: 3, Seed: 3, InOrder: true, Bulk: true}, true},
		{"nifdy-remote", Config{Nodes: 16, NNodes: 20, DNodes: 10, LocalP: 3, DistSpan: 5, Seed: 4, Bulk: true}, true},
		{"basic-remote", Config{Nodes: 16, NNodes: 20, DNodes: 10, LocalP: 3, DistSpan: 5, Seed: 4}, false},
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
