package harness

import (
	"nifdy/internal/core"
	"nifdy/internal/topo"
	"nifdy/internal/topo/butterfly"
	"nifdy/internal/topo/fattree"
	"nifdy/internal/topo/mesh"
)

// NetSpec names a network configuration plus its tuned NIFDY parameters
// (the per-network best parameters of Table 3, reproduced by the Table3
// sweep in this package).
type NetSpec struct {
	// Name labels output rows.
	Name string
	// Build constructs the fabric.
	Build func(seed uint64, opts topo.IfaceOptions) topo.Network
	// Params are the tuned NIFDY parameters for this fabric.
	Params core.Config
	// InOrderFabric is true when the fabric cannot reorder (single-path
	// deterministic routing), so even non-NIFDY NICs deliver in order.
	InOrderFabric bool
}

// FullFatTree is the 64-node full 4-ary fat tree with cut-through routing.
// Generous parameters: big OPT and pool, roomy window (§2.4.3, Table 3).
func FullFatTree() NetSpec {
	return NetSpec{
		Name: "fat tree (full)",
		Build: func(seed uint64, o topo.IfaceOptions) topo.Network {
			return fattree.New(fattree.Config{Seed: seed, Iface: o})
		},
		Params: core.Config{O: 8, B: 8, D: 1, W: 4},
	}
}

// SFFatTree is the store-and-forward full fat tree: the highest-latency
// fabric, so it gets the biggest bulk window.
func SFFatTree() NetSpec {
	return NetSpec{
		Name: "fat tree (store&fwd)",
		Build: func(seed uint64, o topo.IfaceOptions) topo.Network {
			return fattree.New(fattree.Config{Variant: fattree.StoreForward, Seed: seed, Iface: o})
		},
		Params: core.Config{O: 8, B: 8, D: 1, W: 8},
	}
}

// CM5FatTree is the CM-5-like tree: two parents in the lower levels, 4-bit
// time-multiplexed links. Low volume and bisection mean a smaller window
// than the full tree despite the higher round-trip latency (§4.1).
func CM5FatTree() NetSpec {
	return NetSpec{
		Name: "fat tree (CM-5)",
		Build: func(seed uint64, o topo.IfaceOptions) topo.Network {
			return fattree.New(fattree.Config{Variant: fattree.CM5, Seed: seed, Iface: o})
		},
		Params: core.Config{O: 8, B: 8, D: 1, W: 2},
	}
}

// Mesh2D is the 8x8 wormhole mesh: tiny volume and bisection, so the most
// conservative parameters (§2.4.3: O=4, B=4, D=1, W=2).
func Mesh2D() NetSpec {
	return NetSpec{
		Name: "mesh 8x8",
		Build: func(seed uint64, o topo.IfaceOptions) topo.Network {
			return mesh.New(mesh.Config{Dims: []int{8, 8}, Iface: o})
		},
		Params:        core.Config{O: 4, B: 4, D: 1, W: 2},
		InOrderFabric: true,
	}
}

// Torus2D is the 8x8 torus (two virtual channels for the dateline rule).
func Torus2D() NetSpec {
	return NetSpec{
		Name: "torus 8x8",
		Build: func(seed uint64, o topo.IfaceOptions) topo.Network {
			return mesh.New(mesh.Config{Dims: []int{8, 8}, Torus: true, Iface: o})
		},
		Params:        core.Config{O: 4, B: 4, D: 1, W: 2},
		InOrderFabric: true,
	}
}

// Mesh3D is the 4x4x4 mesh.
func Mesh3D() NetSpec {
	return NetSpec{
		Name: "mesh 4x4x4",
		Build: func(seed uint64, o topo.IfaceOptions) topo.Network {
			return mesh.New(mesh.Config{Dims: []int{4, 4, 4}, Iface: o})
		},
		Params:        core.Config{O: 4, B: 8, D: 1, W: 2},
		InOrderFabric: true,
	}
}

// Butterfly is the radix-4 dilation-1 butterfly: three hops, no alternative
// paths — the one network where bulk dialogs are best disabled (§4.1).
func Butterfly() NetSpec {
	return NetSpec{
		Name: "butterfly",
		Build: func(seed uint64, o topo.IfaceOptions) topo.Network {
			return butterfly.New(butterfly.Config{Seed: seed, Iface: o})
		},
		Params:        core.Config{O: 4, B: 8, D: -1, W: 2},
		InOrderFabric: true,
	}
}

// Multibutterfly is the radix-4 dilation-2 multibutterfly.
func Multibutterfly() NetSpec {
	return NetSpec{
		Name: "multibutterfly",
		Build: func(seed uint64, o topo.IfaceOptions) topo.Network {
			return butterfly.New(butterfly.Config{Dilation: 2, Seed: seed, Iface: o})
		},
		Params: core.Config{O: 8, B: 8, D: 1, W: 2},
	}
}

// FatTreeSized is the full fat tree at 4^levels nodes (Figure 4 scaling).
func FatTreeSized(levels int) NetSpec {
	spec := FullFatTree()
	spec.Build = func(seed uint64, o topo.IfaceOptions) topo.Network {
		return fattree.New(fattree.Config{Levels: levels, Seed: seed, Iface: o})
	}
	return spec
}

// CM5Sized is the CM-5-like tree at 4^levels nodes (Figures 5/6 use 32
// nodes; 4^levels is the closest power of 4, so the paper's 32-node runs
// map to 2 levels = 16 or 3 levels = 64; we use the configured size).
func CM5Sized(levels int) NetSpec {
	spec := CM5FatTree()
	spec.Build = func(seed uint64, o topo.IfaceOptions) topo.Network {
		return fattree.New(fattree.Config{Variant: fattree.CM5, Levels: levels, Seed: seed, Iface: o})
	}
	return spec
}

// StandardNetworks returns the seven 64-node fabrics of Figures 2/3 plus
// the multibutterfly.
func StandardNetworks() []NetSpec {
	return []NetSpec{
		FullFatTree(), SFFatTree(), CM5FatTree(),
		Mesh2D(), Torus2D(), Mesh3D(),
		Butterfly(), Multibutterfly(),
	}
}

// NetworkByName maps a CLI network name (mesh, mesh3d, torus, fattree, sf,
// cm5, butterfly, multibutterfly) to its spec.
func NetworkByName(name string) (NetSpec, bool) {
	switch name {
	case "mesh":
		return Mesh2D(), true
	case "mesh3d":
		return Mesh3D(), true
	case "torus":
		return Torus2D(), true
	case "fattree":
		return FullFatTree(), true
	case "sf":
		return SFFatTree(), true
	case "cm5":
		return CM5FatTree(), true
	case "butterfly":
		return Butterfly(), true
	case "multibutterfly":
		return Multibutterfly(), true
	}
	return NetSpec{}, false
}

// AdaptiveMesh2D is the 8x8 mesh with west-first minimal adaptive routing —
// the §6.3 future-work configuration. Adaptivity reorders packets, so
// NIFDY's reorder hardware becomes load-bearing here.
func AdaptiveMesh2D() NetSpec {
	return NetSpec{
		Name: "mesh 8x8 adaptive",
		Build: func(seed uint64, o topo.IfaceOptions) topo.Network {
			return mesh.New(mesh.Config{Dims: []int{8, 8}, Adaptive: true, Seed: seed, Iface: o})
		},
		Params: core.Config{O: 4, B: 4, D: 1, W: 2},
	}
}

// FaultyFatTree is the full fat tree with kill top-level router positions
// disconnected (§1.1 fault study).
func FaultyFatTree(kill int) NetSpec {
	spec := FullFatTree()
	spec.Name = "fat tree (faulty)"
	spec.Build = func(seed uint64, o topo.IfaceOptions) topo.Network {
		return fattree.New(fattree.Config{Seed: seed, KillTopRouters: kill, Iface: o})
	}
	return spec
}
