package check_test

import (
	"fmt"
	"testing"

	"nifdy/internal/check"
	"nifdy/internal/harness"
	"nifdy/internal/node"
	"nifdy/internal/sim"
	"nifdy/internal/traffic"
)

// TestMonitorsCleanAcrossConfigurations is the acceptance matrix: the full
// monitor suite (protocol bounds, sequence accounting, conservation census)
// stays silent on every standard network, for both the NIFDY and the plain
// NIC, at engine shard counts 1, 2, and 4, under heavy synthetic traffic
// run to completion. Two flow twins ride along: the whole-packet census and
// the flit-conservation check (0 = 0, no flit ports) must hold there too.
// Short mode trims to three fabrics and two shard counts.
func TestMonitorsCleanAcrossConfigurations(t *testing.T) {
	nets := append(harness.StandardNetworks(),
		harness.FlowTwin(harness.Mesh2D()), harness.FlowTwin(harness.FullFatTree()))
	shardCounts := []int{1, 2, 4}
	if testing.Short() {
		nets = []harness.NetSpec{harness.Mesh2D(), harness.FullFatTree(), harness.FlowTwin(harness.Mesh2D())}
		shardCounts = []int{1, 2}
	}
	for _, spec := range nets {
		for _, kind := range []harness.NICKind{harness.NIFDY, harness.Plain} {
			for _, shards := range shardCounts {
				name := fmt.Sprintf("%s/%v/shards=%d", spec.Name, kind, shards)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					runClean(t, spec, kind, shards)
				})
			}
		}
	}
}

func runClean(t *testing.T, spec harness.NetSpec, kind harness.NICKind, shards int) {
	t.Helper()
	tcfg := traffic.Heavy(64, 1995)
	tcfg.Phases = 1
	tcfg.PacketsPerPhase = 12
	gen := traffic.NewGen(tcfg, nil)
	var got []check.Violation
	s := harness.Build(harness.BuildOpts{
		Net: spec, Kind: kind, Seed: 1995, EngineShards: shards,
		Program: func(n int) node.Program {
			// Drain tail: accept packets still in flight when the workload
			// ends, so the loss check sees them land. The window restarts
			// on every arrival, so a straggler chain of scalar round trips
			// cannot outlive it.
			m := traffic.Drain(gen.Machine(n), 2500, true)
			return func(p *node.Proc) { p.Run(m) }
		},
		Check: &check.Options{
			Interval: 8, Sequence: true, InOrder: true,
			OnViolation: func(v check.Violation) {
				if len(got) < 10 {
					got = append(got, v)
				}
			},
		},
	})
	defer s.Close()
	ok, end := s.RunUntilDone(400_000)
	if !ok {
		t.Fatalf("workload did not complete by cycle %d", end)
	}
	for i := 0; i < 500; i++ {
		s.Eng.Step()
	}
	s.Checker.Finish(s.Eng.Now())
	for _, v := range got {
		t.Errorf("%s", v)
	}
	if s.Checker.Sweeps() == 0 {
		t.Fatal("checker never swept")
	}
	if s.Accepted() == 0 {
		t.Fatal("workload moved no packets — vacuous run")
	}
	var _ sim.Cycle = end
}
