package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"nifdy/internal/harness"
	"nifdy/internal/sim"
)

const specPath = "../BENCHMARK.json"

// smokeRigs keeps every rig under a tenth of a second.
var smokeRigs = rigSizes{
	engine: 50, sharded: 1_000, shardedWarm: 500,
	router: 1_000, routerWarm: 500, link: 5_000, handoff: 2_000, flow: 2_000,
}

// shrink cuts every workload's frozen cycle counts to smoke size for the
// length of the test.
func shrink(t *testing.T) {
	saved := append([]workload(nil), workloads...)
	warm, cycles := fabricWarm, fabricCycles
	t.Cleanup(func() {
		copy(workloads, saved)
		fabricWarm, fabricCycles = warm, cycles
	})
	for i := range workloads {
		w := &workloads[i]
		if w.exact%w.chunk != 0 {
			t.Errorf("%s: exact window %d is not whole chunks of %d", w.name, w.exact, w.chunk)
		}
		switch w.name {
		case "flow_procs":
			w.warm, w.chunk, w.exact = 200, 50, 400
		case "flow_scale": // nothing crosses the 320x320 mesh in under 2,000 cycles
			w.warm, w.chunk, w.exact = 3_000, 500, 1_000
		default:
			w.warm, w.chunk, w.exact = w.warm/50, w.chunk/50, w.exact/50
		}
	}
	// Shorter cells deliver too little for the NIFDY-over-PFC floor to hold.
	fabricWarm, fabricCycles = 200, 1_000
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestSmoke runs every workload of BENCHMARK.json, untraced and traced, at
// smoke size. Each mode must emit exactly its metrics, each once and with the
// unit BENCHMARK.json gives it, and no check may fail; the traced run steps
// harness.Build's simulation beside the wrapped one and fails on any counter
// that differs, and the two modes must agree on the packets accepted.
func TestSmoke(t *testing.T) {
	shrink(t)
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads)+1 {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads)+1)
	}
	for _, wl := range spec.Workloads {
		if !nameRE.MatchString(wl.Name) {
			t.Errorf("workload name %q", wl.Name)
		}
		var accepted [2]int64
		for i, want := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			r, err := measure(wl.Name, options{seed: 7, seconds: 0.05, trace: i == 1, rigs: smokeRigs})
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 || r.attempted < 1 {
				t.Errorf("%s traced=%v: %d failed of %d", wl.Name, i == 1, r.failed, r.attempted)
			}
			accepted[i] = r.accepted
			if len(r.m) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json has %d", wl.Name, i == 1, len(r.m), len(want))
			}
			for _, m := range want {
				got, ok := r.m[m.Name]
				switch {
				case !nameRE.MatchString(m.Name):
					t.Errorf("metric name %q", m.Name)
				case !ok:
					t.Errorf("%s traced=%v: no %s", wl.Name, i == 1, m.Name)
				case got.Unit != m.Unit || got.Unit == "":
					t.Errorf("%s: %s has unit %q, BENCHMARK.json %q", wl.Name, m.Name, got.Unit, m.Unit)
				case i == 0 && got.Value <= 0:
					t.Errorf("%s: %s = %v", wl.Name, m.Name, got.Value)
				}
			}
			if i == 1 {
				if err := r.tr.write(t.TempDir(), wl.Name); err != nil {
					t.Error(err)
				}
				if len(r.tr.spans) == 0 {
					t.Errorf("%s: traced run recorded no span", wl.Name)
				}
			}
		}
		if accepted[0] != accepted[1] || accepted[0] == 0 {
			t.Errorf("%s: untraced run accepted %d packets, traced %d", wl.Name, accepted[0], accepted[1])
		}
	}
}

// TestWiredMatchesBuild holds this package's wiring, timing wrappers and all,
// to harness.Build's: same counters after the same cycles, so the traced run
// cannot drift from what the end-to-end run measures.
func TestWiredMatchesBuild(t *testing.T) {
	cycles := sim.Cycle(20_000)
	if testing.Short() {
		cycles = 4_000
	}
	for _, spec := range []harness.NetSpec{harness.Mesh2D(), harness.CM5FatTree(), harness.FlowMeshSized(8, 8)} {
		for _, kind := range []harness.NICKind{harness.NIFDY, harness.Plain} {
			tr := newTracer()
			a := fromHarness(spec, kind, heavy(64), 1, 1)(11)
			b := wired(spec, kind, heavy(64))(11, tr)
			a.eng.Run(cycles)
			b.eng.Run(cycles)
			if sa, sb := a.stats(), b.stats(); sa != sb || sa.Accepted == 0 {
				t.Errorf("%s %v: harness.Build %+v, wired %+v", spec.Name, kind, sa, sb)
			}
			if tr.core.ticks == 0 || tr.node.ticks == 0 || tr.core.ns == 0 || tr.node.ns == 0 {
				t.Errorf("%s %v: wrappers saw core %+v, node %+v", spec.Name, kind, tr.core, tr.node)
			}
			a.close()
			b.close()
		}
	}
}

func TestSpreadIsPythons(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25].
	v := []float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7}
	if got := spread(v); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5", got)
	}
}

// TestCompare writes result sets and checks the verdicts: within the bound,
// beyond it, too noisy to tell, and a simulated statistic that moved.
func TestCompare(t *testing.T) {
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(seed uint64, rate []float64, pkts float64) string {
		s := set{Seed: seed, Workloads: map[string]*setOfRuns{}}
		for _, wl := range spec.Workloads {
			e := &setOfRuns{Attempted: 3, EndToEnd: map[string][]float64{}, PerLayer: map[string][]float64{}}
			for _, m := range spec.EndToEnd {
				e.EndToEnd[m.Name] = []float64{1}
			}
			for _, m := range spec.PerLayer {
				e.PerLayer[m.Name] = []float64{1}
			}
			e.EndToEnd["node_cycles_per_s"] = rate
			e.EndToEnd["sim_pkts_per_mcycle"] = []float64{pkts}
			s.Workloads[wl.Name] = e
		}
		path := filepath.Join(t.TempDir(), "set.json")
		if err := writeJSON(path, s); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk(1, []float64{100}, 50)
	for _, c := range []struct {
		name string
		b    string
		ok   bool
		want string
	}{
		{"same", base, true, "pass"},
		{"slightly slower", mk(1, []float64{97}, 50), true, "pass"},
		{"much slower", mk(1, []float64{70}, 50), false, "FAIL"},
		{"too noisy", mk(1, []float64{40, 100, 160, 100}, 50), true, "unresolved"},
		{"model changed", mk(1, []float64{100}, 51), false, "FAIL"},
		{"other seed", mk(2, []float64{100}, 51), true, "pass"},
	} {
		var out bytes.Buffer
		ok, err := compareSets(&out, specPath, base, c.b)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: ok=%v, want %v and %q in\n%s", c.name, ok, c.ok, c.want, out.String())
		}
	}
}
