package flow

import (
	"fmt"

	"nifdy/internal/packet"
	"nifdy/internal/topo"
)

// FromChars sizes a flit fabric's flow twin from its measured
// characteristics: the twin keeps the whole row — link speed, hop
// latencies, distances, bisection and fabric capacity, and the per-node
// buffering its destination queue is sized from — under the flit fabric's
// name with " flow" appended. Building a flit donor to take Chars from is
// cheap at seed sizes; MeshConfig serves the 100k+ node range where
// instantiating (or even all-pairs measuring) the flit network is off the
// table.
func FromChars(ch topo.Characteristics, o topo.IfaceOptions) Config {
	ch.Name += " flow"
	return Config{Characteristics: ch, Iface: o}
}

// MeshConfig analytically sizes a flow fabric modeling an x-by-y wormhole
// mesh with the repo's default link and buffer parameters (CPF 4, 1 VC, 2
// flits per VC buffer) — closed forms replace the flit network's O(N²)
// all-pairs hop measurement, which is what makes 100k+ node configs
// constructible at all.
func MeshConfig(x, y int, o topo.IfaceOptions) Config {
	const cpf, vcs, bufFlits = 4, 1, 2
	nodes := x * y
	// Mean 1-D displacement over ordered distinct pairs of a line of s
	// nodes is (s²−1)/(3s); dimensions are independent, but the pair-count
	// normalization over distinct pairs adds the usual N/(N−1) correction.
	avg := (meanLineDist(x) + meanLineDist(y)) * float64(nodes) / float64(nodes-1)
	maxDim := x
	if y > maxDim {
		maxDim = y
	}
	perRouter := 2 * 2 * packet.NumClasses * vcs * bufFlits // 2 dims
	cross := 2 * nodes / maxDim
	internalLinks := 2 * (x*(y-1) + y*(x-1)) // one channel per direction per adjacency
	cfg := FromChars(topo.Characteristics{
		Name:         fmt.Sprintf("mesh[%d %d]", x, y),
		Nodes:        nodes,
		AvgHops:      avg,
		MaxHops:      x + y - 2,
		VolumeFlits:  perRouter * nodes,
		BisectionFPC: float64(cross) / float64(cpf),
		FabricFPC:    float64(internalLinks) / float64(cpf),
		CPF:          cpf,
		HopLat:       cpf + 2,
	}, o)
	cfg.SolveStride = strideFor(nodes)
	return cfg
}

// strideFor picks the solver quantization for analytically sized fabrics:
// exact at calibration sizes, stride 16 at scale, where typical drain times
// run to thousands of cycles and the quantization error stays around a
// percent.
func strideFor(nodes int) int {
	if nodes < 4096 {
		return 1
	}
	return 16
}

// meanLineDist is the mean |a−b| over all ordered pairs (including a==b) of
// a line of s nodes: (s²−1)/(3s).
func meanLineDist(s int) float64 {
	return (float64(s)*float64(s) - 1) / (3 * float64(s))
}
