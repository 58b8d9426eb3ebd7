package radix

import (
	"strings"
	"testing"

	"nifdy/internal/apps/apptest"
	"nifdy/internal/node"
	"nifdy/internal/packet"
	"nifdy/internal/rng"
)

// oracleScanProgram is the closure scan program the step machine replaced,
// kept verbatim: TestMachineMatchesOracle holds the machine to its
// simulation.
func (a *App) oracleScanProgram(n int) node.Program {
	cfg := a.cfg
	K := a.K
	return func(p *node.Proc) {
		send := func(j int) {
			pk := &packet.Packet{ID: a.ids.Next(), Src: n, Dst: n + 1,
				Words: int32(cfg.Words), Class: packet.Request, Dialog: packet.NoDialog,
				Meta: packet.Meta{Index: int32(j), Total: int32(K)}}
			p.Send(pk)
			if cfg.Delay > 0 {
				p.Consume(cfg.Delay)
			}
		}
		switch {
		case n == 0:
			for j := 0; j < K; j++ {
				send(j)
			}
		case n == cfg.Nodes-1:
			for j := 0; j < K; j++ {
				p.Recv()
			}
		default:
			for j := 0; j < K; j++ {
				p.Recv() // partial sums for packet j from upstream
				send(j)  // add local counts, forward downstream
			}
		}
	}
}

// oracleCoalesceProgram is the closure coalesce program the step machine
// replaced, kept verbatim.
func (a *App) oracleCoalesceProgram(n int) node.Program {
	cfg := a.cfg
	return func(p *node.Proc) {
		r := rng.NewStream(cfg.Seed^0x4AD1, uint64(n))
		for k := 0; k < cfg.KeysPerNode; k++ {
			dst := r.Intn(cfg.Nodes)
			if dst == n {
				a.recvd[n]++ // local key, no packet
				continue
			}
			pk := &packet.Packet{ID: a.ids.Next(), Src: n, Dst: dst,
				Words: int32(cfg.Words), Class: packet.Request, Dialog: packet.NoDialog,
				Meta: packet.Meta{Value: uint64(k)}}
			p.Send(pk)
			for p.HasPending() {
				p.Recv()
				a.recvd[n]++
			}
		}
		for a.recvd[n] < a.expect[n] {
			p.Recv()
			a.recvd[n]++
		}
		p.Barrier(a.bar, func(*packet.Packet) { a.recvd[n]++ })
	}
}

// TestMachineMatchesOracle runs both radix phases as step machines and as the
// closures they replaced — the scan with and without inter-send delay, on
// NIFDY and plain NICs — and requires the same simulation, chunk for chunk,
// to completion.
func TestMachineMatchesOracle(t *testing.T) {
	scan := func(a *App) (func(int) node.Program, func(int) node.Program) {
		return a.ScanProgram, a.oracleScanProgram
	}
	coalesce := func(a *App) (func(int) node.Program, func(int) node.Program) {
		return a.CoalesceProgram, a.oracleCoalesceProgram
	}
	for _, tc := range []struct {
		name  string
		cfg   Config
		progs func(a *App) (machine, oracle func(int) node.Program)
		nifdy bool
	}{
		{"scan-nifdy", Config{Nodes: apptest.Nodes, Buckets: 64}, scan, true},
		{"scan-basic", Config{Nodes: apptest.Nodes, Buckets: 64}, scan, false},
		{"scan-basic-delay", Config{Nodes: apptest.Nodes, Buckets: 64, Delay: 60}, scan, false},
		{"coalesce-nifdy", Config{Nodes: apptest.Nodes, KeysPerNode: 64, Seed: 5}, coalesce, true},
		{"coalesce-basic", Config{Nodes: apptest.Nodes, KeysPerNode: 64, Seed: 5}, coalesce, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			machine, _ := tc.progs(New(tc.cfg, nil))
			_, oracle := tc.progs(New(tc.cfg, nil))
			got := apptest.Trace(t, machine, tc.nifdy, 2_000_000, 250)
			want := apptest.Trace(t, oracle, tc.nifdy, 2_000_000, 250)
			if got != want {
				t.Fatalf("machine diverges from the closure oracle:\nmachine:\n%s\noracle:\n%s", got, want)
			}
			if !strings.HasSuffix(got, "finished=16\n") {
				t.Fatalf("run did not complete:\n%s", got)
			}
		})
	}
}
