package traffic

import (
	"nifdy/internal/rng"
)

// FabricFlow is one directed flow of a modern-fabric scenario: Src streams
// fixed-size packets at Dst for the whole measurement budget.
type FabricFlow struct{ Src, Dst int }

// FabricScenario is a modern-fabric stress pattern (DESIGN.md §10): a fixed
// set of concurrent flows on a 2-D mesh, blasting as fast as the NIC admits
// until the cycle budget expires. Unlike the paper's phase-structured
// synthetic patterns, fabric scenarios are open-ended — the interesting
// quantities are delivered throughput, tail latency, and per-flow fairness
// under sustained overload, not time-to-completion.
//
// All three scenarios share the same fan-in core: fanIn senders, placed by a
// seeded permutation, blast the center node. A lossless fan-in saturates the
// sink's ejection link no matter what the NIC does, so the differentiating
// traffic is what rides alongside it — the incast scenario's uniform
// background load, the victim flows on the hot column, the spread flows on
// the feeder rows. What separates end-to-end admission control from
// in-network backpressure is how much of that innocent traffic survives.
type FabricScenario struct {
	// Name labels output rows ("incast", "victim", "spread").
	Name string
	// Nodes is the mesh size (width * height).
	Nodes int
	// Words is the packet payload size; zero selects 8.
	Words int
	// Flows are the concurrent flows. (Src, Dst) pairs are unique, so a
	// receiver can attribute arrivals to flows by source alone.
	Flows []FabricFlow
}

// meshCenter is the incast sink: the center node of a width x height mesh
// (node y*width + x with x, y the middle coordinates — dimension 0 has
// stride 1 in internal/topo/mesh).
func meshCenter(width, height int) int {
	return (height/2)*width + width/2
}

// incastCore builds the shared fan-in: fanIn senders drawn from a seeded
// permutation (skipping the sink and every reserved node) all target the
// center. It returns the sink, the fan-in flows, and the leftover bystander
// nodes in permutation order. Reserved nodes never join the fan-in: a
// saturated sender parks in Send without draining its own arrivals, so a
// scenario's measurement flows must not terminate at (or originate from) a
// fan-in sender.
func incastCore(width, height, fanIn int, seed uint64, reserved map[int]bool) (sink int, flows []FabricFlow, rest []int) {
	nodes := width * height
	sink = meshCenter(width, height)
	if max := nodes - 1 - len(reserved); fanIn > max {
		fanIn = max
	}
	if fanIn < 1 {
		fanIn = 1
	}
	r := rng.NewStream(seed^0x696e6361, 0)
	perm := make([]int, nodes)
	r.Perm(perm)
	for _, n := range perm {
		if n == sink || reserved[n] {
			continue
		}
		if len(flows) < fanIn {
			flows = append(flows, FabricFlow{Src: n, Dst: sink})
		} else {
			rest = append(rest, n)
		}
	}
	return sink, flows, rest
}

// IncastScenario is the N-way incast amid background load: fanIn senders
// blast the center node while the remaining bystander nodes exchange uniform
// traffic in a circular matching (each bystander sends to the next, so every
// one is exactly one flow's source and another's sink). Under dimension-
// order routing the fan-in converges along the rows onto the sink's column;
// the background flows measure fabric-wide delivered throughput in the
// presence of the hotspot — the quantity indiscriminate backpressure
// collapses and end-to-end admission control preserves (§1.1).
func IncastScenario(width, height, fanIn int, seed uint64) FabricScenario {
	_, flows, rest := incastCore(width, height, fanIn, seed, nil)
	if len(rest) >= 2 {
		for i, n := range rest {
			flows = append(flows, FabricFlow{Src: n, Dst: rest[(i+1)%len(rest)]})
		}
	}
	return FabricScenario{Name: "incast", Nodes: width * height, Words: 8, Flows: flows}
}

// VictimScenario pits two victim flows against a pure fan-in: both run the
// full length of the sink's column (top to bottom and back), sharing every
// link of the hot column without ever targeting the sink. Their delivered
// share exposes head-of-line victimization: ideal congestion control
// throttles only the incast flows, while hop-by-hop pause storms starve the
// victims too.
func VictimScenario(width, height, fanIn int, seed uint64) FabricScenario {
	sx := width / 2
	top, bottom := sx, sx+(height-1)*width
	_, flows, _ := incastCore(width, height, fanIn, seed, map[int]bool{top: true, bottom: true})
	flows = append(flows,
		FabricFlow{Src: top, Dst: bottom},
		FabricFlow{Src: bottom, Dst: top})
	return FabricScenario{Name: "victim", Nodes: width * height, Words: 8, Flows: flows}
}

// SpreadScenario adds row-crossing background flows to a pure fan-in, each
// traversing its own row far from the sink. They never touch the hot column
// links — only the lightly loaded row branches feeding it — so their
// delivered share measures congestion spreading: how far the hotspot's
// backpressure leaks upstream into innocent traffic.
func SpreadScenario(width, height, fanIn int, seed uint64) FabricScenario {
	reserved := map[int]bool{}
	var rows []int
	for _, frac := range []int{1, 3, 5, 7} {
		y := height * frac / 8
		if y == height/2 {
			continue // stay off the sink's own row
		}
		rows = append(rows, y)
		reserved[y*width] = true
		reserved[y*width+width-1] = true
	}
	_, flows, _ := incastCore(width, height, fanIn, seed, reserved)
	for _, y := range rows {
		flows = append(flows, FabricFlow{Src: y * width, Dst: y*width + width - 1})
	}
	return FabricScenario{Name: "spread", Nodes: width * height, Words: 8, Flows: flows}
}
