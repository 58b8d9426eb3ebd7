package harness

import (
	"testing"

	"nifdy/internal/topo"
)

// TestNetworkChars pins every Characteristics field of every fabric spec
// exactly, and of each one's flow twin, which must report the row it was
// sized from under its own name, in order. The flow twin sizes itself from
// FabricFPC, CPF and the hop latencies, and Table 3 prints the rest, so any
// change to how a topology counts hops, links or buffers shows here first.
// The FlowMeshSized row holds MeshConfig's closed forms to the flit mesh's
// measured row.
func TestNetworkChars(t *testing.T) {
	type C = topo.Characteristics
	cases := []struct {
		label string
		spec  NetSpec
		want  C
	}{
		{"full", FullFatTree(), C{Name: "fat tree (full)", Nodes: 64, AvgHops: 5.428571428571429, MaxHops: 6, VolumeFlits: 2560, BisectionFPC: 16, FabricFPC: 64, CPF: 4, HopLat: 6}},
		{"sf", SFFatTree(), C{Name: "fat tree (store&forward)", Nodes: 64, AvgHops: 5.428571428571429, MaxHops: 6, VolumeFlits: 5120, BisectionFPC: 16, FabricFPC: 64, CPF: 4, HopLat: 2, HopLatPerFlit: 4}},
		{"cm5", CM5FatTree(), C{Name: "fat tree (CM-5)", Nodes: 64, AvgHops: 5.428571428571429, MaxHops: 6, VolumeFlits: 2048, BisectionFPC: 4, FabricFPC: 32, CPF: 8, HopLat: 10}},
		{"mesh", Mesh2D(), C{Name: "mesh[8 8]", Nodes: 64, AvgHops: 5.333333333333333, MaxHops: 14, VolumeFlits: 1024, BisectionFPC: 4, FabricFPC: 56, InOrder: true, CPF: 4, HopLat: 6}},
		{"torus", Torus2D(), C{Name: "torus[8 8]", Nodes: 64, AvgHops: 4.063492063492063, MaxHops: 8, VolumeFlits: 2048, BisectionFPC: 8, FabricFPC: 64, InOrder: true, CPF: 4, HopLat: 6}},
		{"mesh3d", Mesh3D(), C{Name: "mesh[4 4 4]", Nodes: 64, AvgHops: 3.8095238095238093, MaxHops: 9, VolumeFlits: 1536, BisectionFPC: 8, FabricFPC: 72, InOrder: true, CPF: 4, HopLat: 6}},
		{"butterfly", Butterfly(), C{Name: "butterfly", Nodes: 64, AvgHops: 3, MaxHops: 3, VolumeFlits: 768, BisectionFPC: 16, FabricFPC: 32, InOrder: true, CPF: 4, HopLat: 6}},
		{"multibutterfly", Multibutterfly(), C{Name: "multibutterfly (dil 2)", Nodes: 64, AvgHops: 3, MaxHops: 3, VolumeFlits: 1536, BisectionFPC: 32, FabricFPC: 64, CPF: 4, HopLat: 6}},
		{"adaptive", AdaptiveMesh2D(), C{Name: "mesh[8 8] adaptive", Nodes: 64, AvgHops: 5.333333333333333, MaxHops: 14, VolumeFlits: 1024, BisectionFPC: 4, FabricFPC: 56, CPF: 4, HopLat: 6}},
		{"faulty4", FaultyFatTree(4), C{Name: "fat tree (full)", Nodes: 64, AvgHops: 5.428571428571429, MaxHops: 6, VolumeFlits: 2560, BisectionFPC: 16, FabricFPC: 56, CPF: 4, HopLat: 6}},
		{"fattree256", FatTreeSized(4), C{Name: "fat tree (full)", Nodes: 256, AvgHops: 7.364705882352941, MaxHops: 8, VolumeFlits: 14336, BisectionFPC: 64, FabricFPC: 384, CPF: 4, HopLat: 6}},
		{"cm5-16", CM5Sized(2), C{Name: "fat tree (CM-5)", Nodes: 16, AvgHops: 3.6, MaxHops: 4, VolumeFlits: 320, BisectionFPC: 2, FabricFPC: 4, CPF: 8, HopLat: 10}},
		{"flowmesh", FlowMeshSized(8, 8), C{Name: "mesh[8 8] flow", Nodes: 64, AvgHops: 5.333333333333333, MaxHops: 14, VolumeFlits: 1024, BisectionFPC: 4, FabricFPC: 56, InOrder: true, CPF: 4, HopLat: 6}},
	}
	if n := len(StandardNetworks()); n != 8 {
		t.Fatalf("StandardNetworks has %d specs; the table covers 8", n)
	}
	for _, tc := range cases {
		if got := tc.spec.Build(1, topo.IfaceOptions{}).Chars(); got != tc.want {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.label, got, tc.want)
		}
		want := tc.want
		want.Name += " flow"
		want.InOrder = true
		if got := FlowTwin(tc.spec).Build(1, topo.IfaceOptions{}).Chars(); got != want {
			t.Errorf("%s flow twin:\n got %+v\nwant %+v", tc.label, got, want)
		}
	}
}
