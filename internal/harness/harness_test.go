package harness

import (
	"strings"
	"testing"

	"nifdy/internal/core"
	"nifdy/internal/node"
	"nifdy/internal/packet"
	"nifdy/internal/sim"
	"nifdy/internal/topo"
	"nifdy/internal/traffic"
)

// fastNets is a reduced network list for quick experiment smoke tests.
func fastNets() []NetSpec {
	return []NetSpec{FullFatTree(), Mesh2D()}
}

func TestBuildKinds(t *testing.T) {
	for _, kind := range []NICKind{Plain, BuffersOnly, NIFDY} {
		s := Build(BuildOpts{Net: Mesh2D(), Kind: kind, Seed: 1})
		if len(s.NICs) != 64 {
			t.Fatalf("%v: %d NICs", kind, len(s.NICs))
		}
		s.Eng.Run(100) // must tick cleanly with no programs
		s.Close()
	}
}

func TestBuildUsesSpecParams(t *testing.T) {
	s := Build(BuildOpts{Net: Mesh2D(), Kind: NIFDY, Seed: 1})
	u := s.NICs[0].(*core.NIFDY)
	o, b, d, w := u.Params()
	if o != 4 || b != 4 || d != 1 || w != 2 {
		t.Fatalf("params = %d %d %d %d", o, b, d, w)
	}
	s.Close()
}

func TestBuildParamOverride(t *testing.T) {
	s := Build(BuildOpts{Net: Mesh2D(), Kind: NIFDY, Seed: 1,
		Params: core.Config{O: 2, B: 2, D: 1, W: 2}})
	u := s.NICs[0].(*core.NIFDY)
	o, b, _, _ := u.Params()
	if o != 2 || b != 2 {
		t.Fatalf("override ignored: O=%d B=%d", o, b)
	}
	s.Close()
}

func TestBuffersOnlySizing(t *testing.T) {
	// Mesh params: O=4,B=4,D=1,W=2, ArrBuf 2 -> total 8 buffers.
	if got := Mesh2D().Params.TotalBuffers(); got != 8 {
		t.Fatalf("mesh total buffers = %d", got)
	}
}

func TestSyntheticTrafficRuns(t *testing.T) {
	tcfg := traffic.Heavy(64, 7)
	tcfg.Phases = 1 << 20
	s := Build(BuildOpts{Net: Mesh2D(), Kind: NIFDY, Seed: 7,
		Program: traffic.NewGen(tcfg, nil).Program})
	defer s.Close()
	s.Eng.Run(40_000)
	if s.Accepted() == 0 {
		t.Fatal("no packets delivered under heavy traffic")
	}
}

func TestFigure2Shape(t *testing.T) {
	tbl := Figure2(SynthOpts{Cycles: 30_000, Networks: fastNets()})
	if tbl.NumRows() != 2 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	out := tbl.String()
	if !strings.Contains(out, "mesh 8x8") || !strings.Contains(out, "fat tree (full)") {
		t.Fatalf("missing rows:\n%s", out)
	}
}

func TestFigure3Shape(t *testing.T) {
	tbl := Figure3(SynthOpts{Cycles: 30_000, Networks: []NetSpec{Mesh2D()}})
	if tbl.NumRows() != 1 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
}

func TestHeavyTrafficNIFDYBeatsPlainOnMesh(t *testing.T) {
	// The paper's headline claim at reduced scale: on the low-bisection
	// mesh under heavy traffic, NIFDY delivers more packets than the plain
	// NIC in the same cycle budget.
	run := func(kind NICKind) int64 {
		tcfg := traffic.Heavy(64, 3)
		tcfg.Phases = 1 << 20
		s := Build(BuildOpts{Net: Mesh2D(), Kind: kind, Seed: 3,
			Program: traffic.NewGen(tcfg, nil).Program})
		defer s.Close()
		s.Eng.Run(100_000)
		return s.Accepted()
	}
	plain, nifdy := run(Plain), run(NIFDY)
	if nifdy <= plain {
		t.Fatalf("NIFDY %d <= plain %d on heavy mesh traffic", nifdy, plain)
	}
}

func TestFigure4Shape(t *testing.T) {
	b, o := Figure4(Figure4Opts{Cycles: 25_000, Levels: []int{2}, Sweep: []int{2, 8}})
	if b.NumRows() != 1 || o.NumRows() != 1 {
		t.Fatalf("rows: %d %d", b.NumRows(), o.NumRows())
	}
}

func TestFigure5HeatmapsDiffer(t *testing.T) {
	without, with := Figure5(CShiftOpts{Levels: 2, BlockWords: 60, MaxCycles: 3_000_000, Samples: 400})
	if without == with {
		t.Fatal("heatmaps identical with and without NIFDY")
	}
	if !strings.Contains(without, "|") || !strings.Contains(with, "|") {
		t.Fatal("heatmaps malformed")
	}
}

func TestFigure6Shape(t *testing.T) {
	tbl := Figure6(CShiftOpts{Levels: 2, BlockWords: 20, MaxCycles: 3_000_000})
	if tbl.NumRows() != 5 {
		t.Fatalf("rows = %d\n%s", tbl.NumRows(), tbl)
	}
}

func TestEM3DShape(t *testing.T) {
	tbl := EM3D(EM3DOpts{Networks: []NetSpec{FullFatTree()}, ScaleGraph: 20, Iters: 1, MaxCycles: 20_000_000})
	if tbl.NumRows() != 1 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
}

func TestFigure9RunsAndNIFDYHelpsWithoutDelay(t *testing.T) {
	tbl := Figure9(RadixOpts{Nodes: 16, Buckets: 32, MaxCycles: 10_000_000})
	if tbl.NumRows() != 3 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
}

func TestRadixCoalesceRuns(t *testing.T) {
	tbl := RadixCoalesce(RadixOpts{Nodes: 16, Buckets: 32, MaxCycles: 10_000_000})
	if tbl.NumRows() != 1 {
		t.Fatal("no row")
	}
}

func TestTable2(t *testing.T) {
	out := Table2().String()
	for _, want := range []string{"T_send", "40", "22", "60"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 2 missing %q:\n%s", want, out)
		}
	}
}

func TestTable3(t *testing.T) {
	tbl := Table3(1)
	if tbl.NumRows() != len(StandardNetworks()) {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	out := tbl.String()
	if !strings.Contains(out, "butterfly") {
		t.Fatalf("missing butterfly:\n%s", out)
	}
}

func TestTable3SweepOrdersByScore(t *testing.T) {
	res := Table3Sweep(Mesh2D(), SweepOpts{Cycles: 20_000, Os: []int{2, 8}, Bs: []int{4}, Ws: []int{2}})
	if len(res) != 2 {
		t.Fatalf("%d results", len(res))
	}
	if res[0].Delivered < res[1].Delivered {
		t.Fatal("sweep results not sorted descending")
	}
}

func TestExtLossyExactlyOnce(t *testing.T) {
	tbl := ExtLossy(LossyOpts{Drops: []float64{0, 0.05}, Messages: 5, MaxCycles: 30_000_000})
	if tbl.NumRows() != 2 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	out := tbl.String()
	if strings.Contains(out, "false") {
		t.Fatalf("lossy run did not complete:\n%s", out)
	}
}

func TestExtAckStrategiesShape(t *testing.T) {
	tbl := ExtAckStrategies(AckOpts{Cycles: 40_000})
	if tbl.NumRows() != 3 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
}

func TestExtPiggybackReducesAcks(t *testing.T) {
	tbl := ExtPiggyback(AckOpts{Cycles: 60_000})
	out := tbl.String()
	if tbl.NumRows() != 2 {
		t.Fatalf("rows = %d:\n%s", tbl.NumRows(), out)
	}
}

func TestNICKindString(t *testing.T) {
	if Plain.String() != "none" || BuffersOnly.String() != "buffers" || NIFDY.String() != "NIFDY" {
		t.Fatal("kind strings")
	}
	if NICKind(9).String() == "" {
		t.Fatal("unknown kind")
	}
}

func TestStandardNetworksBuild(t *testing.T) {
	for _, spec := range StandardNetworks() {
		net := spec.Build(1, topo.IfaceOptions{})
		if net.Nodes() != 64 {
			t.Fatalf("%s: %d nodes", spec.Name, net.Nodes())
		}
	}
}

func TestSimDoneAndIdleProgram(t *testing.T) {
	s := Build(BuildOpts{Net: Mesh2D(), Kind: NIFDY, Seed: 1,
		Program: func(n int) node.Program {
			return func(p *node.Proc) { p.Consume(10) }
		}})
	defer s.Close()
	ok, end := s.RunUntilDone(1000)
	if !ok || end > 100 {
		t.Fatalf("done=%v at %d", ok, end)
	}
}

var _ = packet.NoDialog

func TestModelCheckShape(t *testing.T) {
	tbl := ModelCheck(ModelCheckOpts{})
	if tbl.NumRows() != 7 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	// Assert the headline shape directly on fresh measurements: latency
	// rises linearly with distance on the mesh at ~4 cycles/hop (the
	// paper's slope), and the scalar send gap always exceeds the one-way
	// latency (it contains the full round trip).
	o := ModelCheckOpts{Seed: 2, MaxCycles: 1_000_000}
	var ow1, gap1, ow14, gap14 sim.Cycle
	runCells([]cell{pairCell(Mesh2D(), 1, o, &ow1, &gap1), pairCell(Mesh2D(), 63, o, &ow14, &gap14)})
	slope := float64(ow14-ow1) / 13
	if slope < 3 || slope > 6 {
		t.Fatalf("mesh latency slope %.2f cycles/hop, want ~4", slope)
	}
	if gap14 <= ow14 {
		t.Fatalf("send gap %d not above one-way latency %d", gap14, ow14)
	}
}

func TestExtAdaptiveMesh(t *testing.T) {
	tbl := ExtAdaptiveMesh(AckOpts{Cycles: 40_000})
	if tbl.NumRows() != 2 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
}

func TestExtHotspotShape(t *testing.T) {
	tbl := ExtHotspot(AckOpts{Cycles: 40_000})
	if tbl.NumRows() != 3 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
}

func TestExtFaultsShape(t *testing.T) {
	tbl := ExtFaults(AckOpts{Cycles: 40_000})
	if tbl.NumRows() != 3 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
}
