package harness

import (
	"strings"
	"testing"

	"nifdy/internal/traffic"
)

// Modern-fabric shape regressions (DESIGN.md §10): encode the scenario pack's
// headline claims as assertions at a reduced 9x9 / 48-way scale whose shapes
// match the 17x17 / 256-way defaults. Shapes — who wins and on which metric —
// are the claim; absolute counts are not.

// fabricTestOpts is the reduced-scale configuration shared by the shape and
// determinism tests. 48 fan-in senders leave 32 bystanders for the incast
// background matching, the same sender:background ratio as the default scale.
func fabricTestOpts() FabricOpts {
	return FabricOpts{Width: 9, Height: 9, FanIn: 48, Cycles: 40_000}
}

// fabricByKind indexes one scenario's points by NIC kind name.
func fabricByKind(t *testing.T, pts []FabricPoint, scenario string) map[string]FabricPoint {
	t.Helper()
	out := map[string]FabricPoint{}
	for _, p := range pts {
		if p.Scenario != scenario {
			continue
		}
		if _, dup := out[p.Kind]; dup {
			t.Fatalf("duplicate %s point for kind %s", scenario, p.Kind)
		}
		out[p.Kind] = p
	}
	return out
}

// TestFabricIncastShapes asserts the incast headline: under fan-in plus
// background load on lossless wires, NIFDY's end-to-end admission control
// delivers strictly more than the plain NIC, PFC's hop-by-hop pauses, and
// DCQCN's rate control. The fan-in itself is sink-bound for every kind — the
// margin is the background traffic that indiscriminate backpressure collapses
// and per-destination windows protect (§1.1).
func TestFabricIncastShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell fabric run")
	}
	o := fabricTestOpts()
	o.Scenarios = []traffic.FabricScenario{
		traffic.IncastScenario(o.Width, o.Height, o.FanIn, 1995),
	}
	o.Lossy = []bool{false}
	by := fabricByKind(t, FabricExperiment(o), "incast")
	nifdy := by[NIFDY.String()]
	for _, base := range []NICKind{Plain, PFC, DCQCN} {
		b := by[base.String()]
		if nifdy.Delivered <= b.Delivered {
			t.Errorf("incast: NIFDY delivered %d <= %s %d", nifdy.Delivered, b.Kind, b.Delivered)
		}
	}
	if p := by[Plain.String()]; nifdy.Fairness <= p.Fairness {
		t.Errorf("incast: NIFDY fairness %.3f <= plain %.3f", nifdy.Fairness, p.Fairness)
	}
}

// TestFabricVictimSpreadShapes asserts the congestion-spreading claims. The
// victim flows share every link of the hot column without targeting the sink:
// total delivered ties near the sink's service bound for every kind, but
// NIFDY's fairness is higher because the victims keep their share. The spread
// flows cross only the feeder rows: NIFDY delivers strictly more in total
// because the hotspot's backpressure never reaches them.
func TestFabricVictimSpreadShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell fabric run")
	}
	o := fabricTestOpts()
	o.defaults()
	scenarios := []traffic.FabricScenario{
		traffic.VictimScenario(o.Width, o.Height, o.FanIn, 1995),
		traffic.SpreadScenario(o.Width, o.Height, o.FanIn, 1995),
	}
	kinds := []NICKind{Plain, NIFDY}
	pts := make([]FabricPoint, len(scenarios)*len(kinds))
	var cells []cell
	for _, sc := range scenarios {
		for _, kind := range kinds {
			cells = append(cells, fabricCell(o, sc, kind, false, &pts[len(cells)]))
		}
	}
	runCells(cells)

	victim := fabricByKind(t, pts, "victim")
	vn, vp := victim[NIFDY.String()], victim[Plain.String()]
	if vn.Fairness <= vp.Fairness {
		t.Errorf("victim: NIFDY fairness %.3f <= plain %.3f", vn.Fairness, vp.Fairness)
	}
	// The fan-in pins total delivered to the sink's service rate; NIFDY must
	// not pay for its fairness with aggregate throughput.
	if 10*vn.Delivered < 9*vp.Delivered {
		t.Errorf("victim: NIFDY delivered %d well below plain %d", vn.Delivered, vp.Delivered)
	}

	spread := fabricByKind(t, pts, "spread")
	sn, sp := spread[NIFDY.String()], spread[Plain.String()]
	if sn.Delivered <= sp.Delivered {
		t.Errorf("spread: NIFDY delivered %d <= plain %d", sn.Delivered, sp.Delivered)
	}
	if sn.Fairness <= sp.Fairness {
		t.Errorf("spread: NIFDY fairness %.3f <= plain %.3f", sn.Fairness, sp.Fairness)
	}
}

// TestFabricShardIdentity pins the acceptance requirement that every fabric
// metric is bit-identical across engine shard counts {1, 2, 4}, on both wire
// conditions — the lossy column's seeded drop streams are part of the
// deterministic state.
func TestFabricShardIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell fabric run")
	}
	o := fabricTestOpts()
	o.Cycles = 20_000
	sc := traffic.IncastScenario(o.Width, o.Height, o.FanIn, 1995)
	for _, lossy := range []bool{false, true} {
		var ref FabricPoint
		for i, shards := range []int{1, 2, 4} {
			o.Shards = shards
			pt := FabricCell(o, sc, NIFDY, lossy)
			if pt.Delivered == 0 {
				t.Fatalf("lossy=%v shards=%d delivered 0 packets", lossy, shards)
			}
			if i == 0 {
				ref = pt
				continue
			}
			if pt != ref {
				t.Errorf("lossy=%v: shards=%d point %+v != shards=1 point %+v", lossy, shards, pt, ref)
			}
		}
	}
}

// TestFlowTierRefusesFabricFeatures: the flow tier models none of the
// modern-fabric features (PFC pause, ECN marking, lossy access wires), so
// Build refuses a flow fabric asked for any of them instead of running a
// plain one in its place. Interface-level loss (Drop) is modelled and builds.
func TestFlowTierRefusesFabricFeatures(t *testing.T) {
	cases := []struct {
		name string
		opts BuildOpts
		// feature is the FabricConfig feature the refusal must name; ""
		// means the cell builds.
		feature string
	}{
		{"PFC", BuildOpts{Kind: PFC}, "PFC"},
		{"DCQCN", BuildOpts{Kind: DCQCN}, "ECN"},
		{"WireDrop", BuildOpts{Kind: NIFDY, WireDrop: 1.0 / 64}, "WireDrop"},
		{"Plain", BuildOpts{Kind: Plain}, ""},
		{"BuffersOnly", BuildOpts{Kind: BuffersOnly}, ""},
		{"NIFDY", BuildOpts{Kind: NIFDY}, ""},
		{"Drop", BuildOpts{Kind: NIFDY, Drop: 0.05}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.Net, opts.Seed = FlowMeshSized(8, 8), 1
			var refusal any
			func() {
				defer func() { refusal = recover() }()
				Build(opts).Close()
			}()
			msg, _ := refusal.(string)
			switch {
			case tc.feature == "" && refusal != nil:
				t.Fatalf("refused a cell the flow tier models: %v", refusal)
			case tc.feature != "" && !strings.Contains(msg, tc.feature):
				t.Fatalf("refusal %v does not name %s", refusal, tc.feature)
			}
		})
	}
}
