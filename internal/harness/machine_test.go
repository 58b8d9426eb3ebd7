package harness

import (
	"strings"
	"testing"

	"nifdy/internal/apps/cshift"
	"nifdy/internal/apps/em3d"
	"nifdy/internal/apps/radix"
	"nifdy/internal/node"
	"nifdy/internal/packet"
	"nifdy/internal/rng"
	"nifdy/internal/sim"
	"nifdy/internal/traffic"
)

// genOracle is traffic.Gen's closure program, which its step machine
// replaced, kept verbatim (Gen's barrier is bar here; cfg must set Words and
// Phases, the defaults NewGen applies).
func genOracle(cfg traffic.Config) func(n int) node.Program {
	bar := node.NewBarrier(cfg.Nodes)
	return func(n int) node.Program {
		r := rng.NewStream(cfg.Seed, uint64(n))
		ids := packet.NewNodeIDs(n)
		var msgSeq uint64
		weights := make([]int, len(cfg.Lengths))
		for i, l := range cfg.Lengths {
			weights[i] = l.Weight
		}
		return func(p *node.Proc) {
			for phase := 0; phase < cfg.Phases; phase++ {
				sending := r.Float64() < cfg.SendProb
				if sending {
					sent := 0
					for sent < cfg.PacketsPerPhase {
						if cfg.IgnoreProb > 0 && r.Float64() < cfg.IgnoreProb {
							// Non-responsive period: neither send nor pull.
							p.Consume(cfg.IgnoreLen)
						}
						dst := r.Intn(cfg.Nodes - 1)
						if dst >= n {
							dst++
						}
						if cfg.HotspotProb > 0 && cfg.HotspotNode != n && r.Float64() < cfg.HotspotProb {
							dst = cfg.HotspotNode
						}
						length := cfg.Lengths[r.Pick(weights)].Packets
						msgSeq++
						msg := uint64(n)<<32 | msgSeq
						bulk := cfg.BulkThreshold > 0 && length >= cfg.BulkThreshold
						for i := 0; i < length; i++ {
							pk := p.Alloc()
							pk.ID = ids.Next()
							pk.Src = n
							pk.Dst = dst
							pk.Words = int32(cfg.Words)
							pk.BulkReq = bulk && i < length-1
							pk.Meta = packet.Meta{MsgID: msg, Index: int32(i), Total: int32(length)}
							p.Send(pk)
							sent++
							for p.HasPending() {
								p.Free(p.Recv())
							}
						}
					}
				}
				p.Barrier(bar, p.Free)
			}
		}
	}
}

// oracleProgram is the fabric collector's closure program, which its step
// machine replaced, kept verbatim.
func (c *fabricCollector) oracleProgram(n int) node.Program {
	out := c.out[n]
	if len(out) == 0 && c.at[n] == nil {
		return nil // bystander: its NIC still ticks
	}
	ids := packet.NewNodeIDs(n)
	return func(p *node.Proc) {
		if len(out) == 0 {
			for {
				c.take(n, p, p.Recv())
			}
		}
		for {
			for _, f := range out {
				pk := p.Alloc()
				pk.ID = ids.Next()
				pk.Src = n
				pk.Dst = f.Dst
				pk.Words = int32(c.words)
				pk.BulkReq = true
				p.Send(pk)
				for p.HasPending() {
					c.take(n, p, p.Recv())
				}
			}
		}
	}
}

// fabricOpts builds a small incast cell for the fabric collector: a 9x9
// deep-buffer mesh, 16-way fan-in amid background flows, at the fabric
// scenarios' reduced software costs.
func fabricOpts(shards int) (BuildOpts, *fabricCollector) {
	spec := FabricMesh(9, 9)
	col := newFabricCollector(traffic.IncastScenario(9, 9, 16, 1995))
	return BuildOpts{
		Net: spec, Kind: NIFDY, Seed: 1995, Params: spec.Params,
		Costs:        node.Costs{Send: 10, Recv: 14, Poll: 6, ReorderPenalty: 4},
		EngineShards: shards,
	}, col
}

// TestMachinesMatchOracles holds each step machine in harness-built runs to
// the closure program it replaced: the same golden trace, chunk for chunk,
// serially and at two engine shards. The applications' differential tests
// live beside them (internal/apps/*/oracle_test.go); they run serially, since
// an application's message layer and packet IDs are shared by its nodes.
func TestMachinesMatchOracles(t *testing.T) {
	if testing.Short() {
		t.Skip("full-workload differential suite is slow")
	}
	const seed = 1995
	endless := func(c traffic.Config) traffic.Config {
		c.Phases = 1 << 20
		return c
	}
	hotspot := endless(traffic.Heavy(64, seed))
	hotspot.HotspotProb, hotspot.HotspotNode = 0.3, 27
	idle := endless(traffic.Heavy(64, seed))
	idle.SendProb = 0.5 // phases where a node only joins the barrier
	short := traffic.Heavy(64, seed)
	short.Phases, short.PacketsPerPhase = 2, 40
	gen := func(spec NetSpec, kind NICKind, c traffic.Config) func(oracle bool) BuildOpts {
		return func(oracle bool) BuildOpts {
			prog := traffic.NewGen(c, nil).Program
			if oracle {
				prog = genOracle(c)
			}
			return BuildOpts{Net: spec, Kind: kind, Seed: seed, PendingInterval: 500, Program: prog}
		}
	}
	cases := []struct {
		name   string
		cycles sim.Cycle
		opts   func(oracle bool) BuildOpts
	}{
		{"heavy-mesh2d-nifdy", 10_000, gen(Mesh2D(), NIFDY, endless(traffic.Heavy(64, seed)))},
		// Light covers IgnoreProb's non-responsive Consume and SendProb < 1.
		{"light-fattree-nifdy", 12_000, gen(FullFatTree(), NIFDY, endless(traffic.Light(64, seed)))},
		{"hotspot-mesh2d-plain", 10_000, gen(Mesh2D(), Plain, hotspot)},
		{"sendprob-half-torus2d-nifdy", 10_000, gen(Torus2D(), NIFDY, idle)},
		// The generator ends inside the run: the tail drain that follows Run
		// (drainTail) must resume in the cycle the machine ends in.
		{"drain-tail-mesh2d-nifdy", 20_000, func(oracle bool) BuildOpts {
			o := gen(Mesh2D(), NIFDY, short)(oracle)
			progs := o.Program
			o.Program = func(n int) node.Program { return drainTail(progs(n), 2500) }
			return o
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, shards := range []int{1, 2} {
				traces := [2]string{}
				for i, oracle := range []bool{false, true} {
					opts := tc.opts(oracle)
					opts.EngineShards = shards
					traces[i] = goldenTrace(t, opts, tc.cycles, 250)
				}
				if traces[0] != traces[1] {
					t.Fatalf("shards=%d: machine diverges from the closure oracle:\nmachine:\n%s\noracle:\n%s", shards, traces[0], traces[1])
				}
				if strings.Contains(traces[0], "total=0\n") {
					t.Fatalf("shards=%d: the workload moved no packets:\n%s", shards, traces[0])
				}
			}
		})
	}
	t.Run("collector", func(t *testing.T) {
		t.Parallel()
		for _, shards := range []int{1, 2} {
			var traces [2]string
			var points [2][3]any
			for i, oracle := range []bool{false, true} {
				opts, col := fabricOpts(shards)
				opts.Program = col.Program
				if oracle {
					opts.Program = col.oracleProgram
				}
				traces[i] = goldenTrace(t, opts, 8_000, 250)
				d, p99, fair := col.point()
				points[i] = [3]any{d, p99, fair}
			}
			if traces[0] != traces[1] || points[0] != points[1] {
				t.Fatalf("shards=%d: machine diverges from the closure oracle (delivered, p99, fairness %v vs %v):\nmachine:\n%s\noracle:\n%s",
					shards, points[0], points[1], traces[0], traces[1])
			}
		}
	})
}

// TestShippedProgramsRunEngineSide builds each shipped program — the
// synthetic generator, the fabric collector, C-shift, EM3D and both radix
// phases — on a small cell and holds every processor to at most two
// goroutine handoffs (into Run and back out of it) however many primitives
// it completes.
func TestShippedProgramsRunEngineSide(t *testing.T) {
	const seed = 1995
	heavy := traffic.Heavy(64, seed)
	heavy.Phases, heavy.PacketsPerPhase = 2, 30
	fabric, col := fabricOpts(1)
	fabric.Program = col.Program
	app := func(program func(n int) node.Program) BuildOpts {
		return BuildOpts{Net: CM5Sized(2), Kind: NIFDY, Seed: seed, Program: program}
	}
	cases := []struct {
		name   string
		opts   BuildOpts
		cycles sim.Cycle
		// ends marks programs that finish inside the budget.
		ends bool
	}{
		{"traffic", BuildOpts{Net: Mesh2D(), Kind: NIFDY, Seed: seed, Program: traffic.NewGen(heavy, nil).Program}, 2_000_000, true},
		{"collector", fabric, 5_000, false},
		{"cshift", app(cshift.New(cshift.Config{Nodes: 16, BlockWords: 60, Barriers: true, InOrder: true, Bulk: true}, nil).Program), 2_000_000, true},
		{"em3d", app(em3d.New(em3d.Config{Nodes: 16, NNodes: 20, DNodes: 10, LocalP: 3, DistSpan: 5, Seed: seed, Bulk: true}, nil).Program), 2_000_000, true},
		{"radix-scan", app(radix.New(radix.Config{Nodes: 16, Buckets: 64}, nil).ScanProgram), 2_000_000, true},
		{"radix-coalesce", app(radix.New(radix.Config{Nodes: 16, KeysPerNode: 64, Seed: seed}, nil).CoalesceProgram), 2_000_000, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := Build(tc.opts)
			defer s.Close()
			if ok, _ := s.RunUntilDone(tc.cycles); ok != tc.ends {
				t.Fatalf("programs finished: %v, want %v", ok, tc.ends)
			}
			var prims int64
			for _, p := range s.Procs {
				w := p.Work()
				if w.Handoffs > 2 {
					t.Errorf("proc %d: %d goroutine handoffs for %d primitives, want at most 2", p.ID(), w.Handoffs, w.Primitives)
				}
				prims += w.Primitives
			}
			if per := prims / int64(len(s.Procs)); per < 10 {
				t.Fatalf("%d primitives per processor: too few to tell a machine from a closure", per)
			}
		})
	}
}
