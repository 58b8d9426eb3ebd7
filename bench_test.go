// The two whole-simulator go test benchmarks, both run by `make bench-smoke`:
// raw cycle speed on a loaded mesh, and the per-NIC-kind allocation read-out
// of the saturated data path. Speed, memory and per-layer cost are measured
// by bench/ (`make bench`); per-experiment wall clock is nifdy-bench's
// "[id took ...]" line.
package nifdy_test

import (
	"testing"

	"nifdy/internal/harness"
	"nifdy/internal/node"
	"nifdy/internal/traffic"
)

// BenchmarkSimCycleMesh measures raw simulator speed: cycles/second on a
// loaded 8x8 mesh with NIFDY NICs (reported as cycles_per_op over 10k
// simulated cycles).
func BenchmarkSimCycleMesh(b *testing.B) {
	tcfg := traffic.Heavy(64, 7)
	tcfg.Phases = 1 << 20
	gen := traffic.NewGen(tcfg, nil)
	s := harness.Build(harness.BuildOpts{Net: harness.Mesh2D(), Kind: harness.NIFDY, Seed: 7,
		Program: func(n int) node.Program { return gen.Program(n) }})
	defer s.Close()
	s.Eng.Run(10_000) // warm into steady state
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Eng.Run(10_000)
	}
	b.ReportMetric(10_000, "simcycles/op")
}

// BenchmarkSaturatedCycle measures the steady-state cost of one simulated
// cycle under saturation for each NIC kind, with allocation reporting: the
// zero-allocation data path contract is that B/op stays at (near) zero once
// the simulation is warm — every queue at its high-water mark, every packet
// recycling through the per-node free-lists.
func BenchmarkSaturatedCycle(b *testing.B) {
	kinds := []struct {
		name string
		kind harness.NICKind
	}{
		{"nifdy", harness.NIFDY},
		{"buffers", harness.BuffersOnly},
		{"plain", harness.Plain},
	}
	for _, k := range kinds {
		b.Run(k.name, func(b *testing.B) {
			tcfg := traffic.Heavy(64, 7)
			tcfg.Phases = 1 << 20
			gen := traffic.NewGen(tcfg, nil)
			s := harness.Build(harness.BuildOpts{Net: harness.Mesh2D(), Kind: k.kind, Seed: 7,
				Program: func(n int) node.Program { return gen.Program(n) }})
			defer s.Close()
			// Warm past the transient: pools and rings grow to their
			// high-water marks, after which the data path recycles.
			s.Eng.Run(20_000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Eng.Run(1_000)
			}
			b.ReportMetric(1_000, "simcycles/op")
		})
	}
}
