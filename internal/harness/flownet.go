package harness

import (
	"fmt"

	"nifdy/internal/core"
	"nifdy/internal/flow"
	"nifdy/internal/topo"
)

// FlowTwin returns spec's flow-level twin: the same NIFDY parameters over a
// bandwidth-sharing fabric sized from the flit network's measured
// characteristics (link speed, hop latency, distances, bisection, per-node
// buffering). The flit donor is built once per twin construction just to
// take Chars — cheap at the seed sizes where twins are compared point for
// point against the cycle-accurate engine.
func FlowTwin(spec NetSpec) NetSpec {
	out := spec
	out.Name = spec.Name + " flow"
	base := spec.Build
	out.Build = func(seed uint64, o topo.IfaceOptions) topo.Network {
		ch := base(seed, o).Chars()
		return flow.New(flow.FromChars(ch, o))
	}
	out.InOrderFabric = true // each (src, dst, class) stream is FIFO by construction
	return out
}

// FlowMeshSized is an x-by-y-node flow-level mesh with analytically derived
// characteristics — the constructor for the 100k+ node scaling runs, where
// building (or all-pairs measuring) a flit mesh is not feasible.
func FlowMeshSized(x, y int) NetSpec {
	return NetSpec{
		Name: fmt.Sprintf("mesh %dx%d flow", x, y),
		Build: func(seed uint64, o topo.IfaceOptions) topo.Network {
			return flow.New(flow.MeshConfig(x, y, o))
		},
		Params:        core.Config{O: 4, B: 4, D: 1, W: 2},
		InOrderFabric: true,
	}
}
