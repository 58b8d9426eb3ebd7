package harness

import (
	"testing"

	"nifdy/internal/topo"
	"nifdy/internal/traffic"
)

// Paper-shape regressions: encode the claims EXPERIMENTS.md records for the
// paper's evaluation as assertions, at reduced cycle budgets. Shapes — who
// wins and where — are the claim; absolute counts are not.

// TestFigure2Ordering asserts the Figure 2 headline on the low-bisection
// fabrics, where the paper (and EXPERIMENTS.md §F2) put the biggest margins:
// under heavy traffic NIFDY delivers more than the plain NIC, and at least
// matches the same buffering without the protocol.
func TestFigure2Ordering(t *testing.T) {
	specs := []NetSpec{Mesh2D(), Torus2D(), CM5FatTree()}
	if testing.Short() {
		specs = specs[:1]
	}
	const cycles = 60_000
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			vals := make([]int64, len(paperKinds))
			runCells(synthRow(spec, paperKinds, traffic.Heavy(64, 1995), cycles, 1995, vals))
			none, buffers, nifdy := vals[0], vals[1], vals[2]
			if nifdy <= none {
				t.Errorf("NIFDY %d <= none %d (heavy traffic, %s)", nifdy, none, spec.Name)
			}
			// "Comparable to or better than the same buffering without the
			// protocol" (§4.6) — allow a small tolerance at reduced budget.
			if float64(nifdy) < 0.97*float64(buffers) {
				t.Errorf("NIFDY %d well below buffers-only %d on %s", nifdy, buffers, spec.Name)
			}
		})
	}
}

// TestFigure3LightTrafficTolerance asserts Figure 3's claim: under light
// loads NIFDY's restrictiveness does not hurt. EXPERIMENTS.md §F3 records
// parity or small wins, with the CM-5 tree gaining the most.
func TestFigure3LightTrafficTolerance(t *testing.T) {
	spec := CM5FatTree()
	vals := make([]int64, 2)
	runCells(synthRow(spec, []NICKind{Plain, NIFDY}, traffic.Light(64, 1995), 60_000, 1995, vals))
	none, nifdy := vals[0], vals[1]
	if nifdy <= none {
		t.Errorf("light traffic on the CM-5 tree: NIFDY %d <= none %d (F3 records a clear win)", nifdy, none)
	}
}

// TestTable3InOrderFabricSet pins the Table 3 in-order column: exactly the
// single-path deterministic fabrics (mesh, torus, 3-D mesh, butterfly) are
// in-order, the built network's own characterization agrees with the
// NetSpec flag the harness uses to gate ordering checks, and the paper's
// per-network parameter tuning survives.
func TestTable3InOrderFabricSet(t *testing.T) {
	wantInOrder := map[string]bool{
		"mesh 8x8":   true,
		"torus 8x8":  true,
		"mesh 4x4x4": true,
		"butterfly":  true,
	}
	for _, spec := range StandardNetworks() {
		chars := spec.Build(1, topo.IfaceOptions{}).Chars()
		if chars.InOrder != wantInOrder[spec.Name] {
			t.Errorf("%s: Chars().InOrder = %v, want %v", spec.Name, chars.InOrder, wantInOrder[spec.Name])
		}
		if spec.InOrderFabric != chars.InOrder {
			t.Errorf("%s: NetSpec.InOrderFabric %v disagrees with fabric %v",
				spec.Name, spec.InOrderFabric, chars.InOrder)
		}
	}
}
