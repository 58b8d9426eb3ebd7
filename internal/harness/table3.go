package harness

import (
	"nifdy/internal/core"
	"nifdy/internal/sim"
	"nifdy/internal/stats"
	"nifdy/internal/topo"
	"nifdy/internal/traffic"
)

// Table2 reports the processor-model calibration constants (the paper's
// Table 2 CM-5 measurements as used in §2.4.3).
func Table2() *stats.Table {
	t := stats.NewTable("Table 2: CM-5 software overheads (processor cycles)",
		"operation", "cycles")
	t.Row("active message send (T_send)", 40)
	t.Row("active message poll (no message)", 22)
	t.Row("active message receive (T_receive)", 60)
	t.Row("NIFDY ack generate+process (T_ackproc)", 4)
	return t
}

// Table3 reports each standard network's characteristics alongside its
// adopted NIFDY parameters (the paper's Table 3).
func Table3(seed uint64) *stats.Table {
	t := stats.NewTable("Table 3: 64-node network characteristics and tuned NIFDY parameters",
		"network", "avg d", "max d", "volume (flits)", "bisection (f/c)", "in-order", "O", "B", "D", "W")
	for _, spec := range StandardNetworks() {
		net := spec.Build(seed, topo.IfaceOptions{})
		c := net.Chars()
		p := spec.Params
		d := p.D
		if d < 0 {
			d = 0
		}
		t.Row(spec.Name, c.AvgHops, c.MaxHops, c.VolumeFlits, c.BisectionFPC,
			c.InOrder, p.O, p.B, d, p.W)
	}
	return t
}

// SweepResult is one point of a parameter sweep.
type SweepResult struct {
	Params    core.Config
	Delivered int64
}

// SweepOpts parameterizes Table3Sweep.
type SweepOpts struct {
	Cycles sim.Cycle // per-point budget; default 200,000
	Seed   uint64
	Os, Bs []int // candidate values; defaults {2,4,8} each
	Ws     []int // candidate windows; default {2,4,8}
}

func (o *SweepOpts) defaults() {
	if o.Cycles == 0 {
		o.Cycles = 200_000
	}
	if o.Seed == 0 {
		o.Seed = 1995
	}
	if o.Os == nil {
		o.Os = []int{2, 4, 8}
	}
	if o.Bs == nil {
		o.Bs = []int{2, 4, 8}
	}
	if o.Ws == nil {
		o.Ws = []int{2, 4, 8}
	}
}

// Table3Sweep searches (O, B, W) for one network, scoring each point by the
// average of heavy- and light-traffic delivery (the paper chose parameters
// "to give the best average performance with both test traffic patterns").
// It returns all points, best first.
func Table3Sweep(spec NetSpec, o SweepOpts) []SweepResult {
	o.defaults()
	var points []core.Config
	for _, ov := range o.Os {
		for _, bv := range o.Bs {
			for _, wv := range o.Ws {
				points = append(points, core.Config{O: ov, B: bv, D: 1, W: wv})
			}
		}
	}
	// Two cells per point, heavy and light traffic, summed into its score.
	scores := make([][2]int64, len(points))
	nodes := spec.Build(o.Seed, topo.IfaceOptions{}).Nodes()
	var cells []cell
	for i, p := range points {
		for j, load := range []func(int, uint64) traffic.Config{traffic.Heavy, traffic.Light} {
			cells = append(cells, cell{
				opts:   BuildOpts{Net: spec, Kind: NIFDY, Seed: o.Seed, Params: p, Program: endless(load(nodes, o.Seed))},
				budget: o.Cycles,
				read:   accepted(&scores[i][j]),
			})
		}
	}
	runCells(cells)
	results := make([]SweepResult, len(points))
	for i, p := range points {
		results[i] = SweepResult{Params: p, Delivered: scores[i][0] + scores[i][1]}
	}
	// Insertion sort by score descending (small n).
	for i := 1; i < len(results); i++ {
		for j := i; j > 0 && results[j].Delivered > results[j-1].Delivered; j-- {
			results[j], results[j-1] = results[j-1], results[j]
		}
	}
	return results
}
