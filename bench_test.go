// Benchmarks: one per paper table/figure (DESIGN.md experiment index), each
// running its harness entry at reduced scale so the suite completes in
// minutes. cmd/nifdy-bench -full reproduces paper-scale budgets. Reported
// ns/op is the wall time of one full experiment at the reduced scale;
// sub-benchmarks print the headline shape numbers via b.ReportMetric where
// a single scalar captures it.
package nifdy_test

import (
	"testing"

	"nifdy"
	"nifdy/internal/harness"
	"nifdy/internal/node"
	"nifdy/internal/sim"
	"nifdy/internal/traffic"
)

// benchNets keeps the per-iteration cost bounded while spanning the
// low-bisection (mesh) and high-bisection (fat tree) extremes.
func benchNets() []nifdy.NetSpec {
	return []nifdy.NetSpec{nifdy.FullFatTree(), nifdy.Mesh2D(), nifdy.CM5FatTree()}
}

func BenchmarkTable2Calibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := nifdy.Table2()
		if tbl.NumRows() == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable3BestParams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := nifdy.Table3(1995)
		if tbl.NumRows() != 8 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkTable3SweepMesh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := nifdy.Table3Sweep(nifdy.Mesh2D(), nifdy.SweepOpts{
			Cycles: 20_000, Os: []int{4, 8}, Bs: []int{4, 8}, Ws: []int{2}})
		if len(res) != 4 {
			b.Fatal("bad sweep")
		}
	}
}

func BenchmarkFigure2Heavy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := nifdy.Figure2(nifdy.SynthOpts{Cycles: 100_000, Networks: benchNets()})
		if tbl.NumRows() != 3 {
			b.Fatal("bad figure 2")
		}
	}
}

func BenchmarkFigure3Light(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := nifdy.Figure3(nifdy.SynthOpts{Cycles: 100_000, Networks: benchNets()})
		if tbl.NumRows() != 3 {
			b.Fatal("bad figure 3")
		}
	}
}

func BenchmarkFigure4Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		vb, vo := nifdy.Figure4(nifdy.Figure4Opts{Cycles: 60_000, Levels: []int{2, 3}, Sweep: []int{2, 8}})
		if vb.NumRows() != 2 || vo.NumRows() != 2 {
			b.Fatal("bad figure 4")
		}
	}
}

func BenchmarkFigure5CShiftHeatmap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		without, with := nifdy.Figure5(nifdy.CShiftOpts{
			Levels: 2, BlockWords: 20, MaxCycles: 5_000_000, Samples: 10_000})
		if without == "" || with == "" {
			b.Fatal("bad figure 5")
		}
	}
}

func BenchmarkFigure6CShift(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := nifdy.Figure6(nifdy.CShiftOpts{Levels: 2, BlockWords: 20, MaxCycles: 5_000_000})
		if tbl.NumRows() != 5 {
			b.Fatal("bad figure 6")
		}
	}
}

func BenchmarkFigure7EM3DLight(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := nifdy.EM3D(nifdy.EM3DOpts{ScaleGraph: 20, Iters: 1,
			Networks: benchNets(), MaxCycles: 30_000_000})
		if tbl.NumRows() != 3 {
			b.Fatal("bad figure 7")
		}
	}
}

func BenchmarkFigure8EM3DHeavy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := nifdy.EM3D(nifdy.EM3DOpts{Heavy: true, ScaleGraph: 20, Iters: 1,
			Networks: benchNets(), MaxCycles: 30_000_000})
		if tbl.NumRows() != 3 {
			b.Fatal("bad figure 8")
		}
	}
}

func BenchmarkFigure9RadixScan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := nifdy.Figure9(nifdy.RadixOpts{Nodes: 16, Buckets: 64, MaxCycles: 10_000_000})
		if tbl.NumRows() != 3 {
			b.Fatal("bad figure 9")
		}
	}
}

func BenchmarkRadixCoalesce(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := nifdy.RadixCoalesce(nifdy.RadixOpts{Nodes: 16, Buckets: 64, MaxCycles: 10_000_000})
		if tbl.NumRows() != 1 {
			b.Fatal("bad coalesce")
		}
	}
}

func BenchmarkExtLossyRetransmit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := nifdy.ExtLossy(nifdy.LossyOpts{Drops: []float64{0.05}, Messages: 5, MaxCycles: 30_000_000})
		if tbl.NumRows() != 1 {
			b.Fatal("bad lossy")
		}
	}
}

func BenchmarkExtAckStrategies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := nifdy.ExtAckStrategies(nifdy.AckOpts{Cycles: 50_000})
		if tbl.NumRows() != 3 {
			b.Fatal("bad acks")
		}
	}
}

func BenchmarkExtPiggyback(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := nifdy.ExtPiggyback(nifdy.AckOpts{Cycles: 60_000})
		if tbl.NumRows() != 2 {
			b.Fatal("bad piggyback")
		}
	}
}

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

// BenchmarkEngineParallel is the X3 ablation: the engine's sharded parallel
// tick versus serial on a partitionable workload, verifying identical
// results while measuring wall-clock.
func BenchmarkEngineParallel(b *testing.B) {
	build := func(eng *sim.Engine, shards int) []*sim.Reg[int] {
		const k = 64
		regs := make([]*sim.Reg[int], k)
		for i := range regs {
			regs[i] = &sim.Reg[int]{}
			regs[i].Bind(eng.CrossFlusher(i % shards))
		}
		for i := 0; i < k; i++ {
			i := i
			eng.RegisterSharded(i%shards, sim.TickFunc(func(sim.Cycle) {
				regs[i].Set(regs[(i+k-1)%k].Get() + 1)
			}))
		}
		return regs
	}
	b.Run("serial", func(b *testing.B) {
		eng := sim.New()
		build(eng, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Step()
		}
	})
	b.Run("parallel4", func(b *testing.B) {
		eng := sim.NewParallel(4)
		defer eng.Close()
		build(eng, 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Step()
		}
	})
}

// BenchmarkConcurrentSims measures the harness's real parallel win: running
// independent simulations concurrently (how every multi-configuration
// figure is produced).
func BenchmarkConcurrentSims(b *testing.B) {
	runOne := func() {
		tcfg := traffic.Heavy(64, 3)
		tcfg.Phases = 1 << 20
		gen := traffic.NewGen(tcfg, nil)
		s := harness.Build(harness.BuildOpts{Net: harness.Mesh2D(), Kind: harness.NIFDY, Seed: 3,
			Program: func(n int) node.Program { return gen.Program(n) }})
		s.Eng.Run(20_000)
		s.Close()
	}
	b.Run("sequential4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < 4; j++ {
				runOne()
			}
		}
	})
	b.Run("concurrent4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			done := make(chan struct{}, 4)
			for j := 0; j < 4; j++ {
				go func() { runOne(); done <- struct{}{} }()
			}
			for j := 0; j < 4; j++ {
				<-done
			}
		}
	})
}

// BenchmarkModelCheck runs the §2.4 analytical-model calibration.
func BenchmarkModelCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := nifdy.ModelCheck(nifdy.ModelCheckOpts{})
		if tbl.NumRows() != 7 {
			b.Fatal("bad model check")
		}
	}
}
