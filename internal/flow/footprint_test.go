package flow

import (
	"math"
	"runtime"
	"testing"
	"unsafe"

	"nifdy/internal/sim"
	"nifdy/internal/topo"
)

// TestPortLayout holds the per-node record to whole cache lines, with the
// fields every event touches in the first.
func TestPortLayout(t *testing.T) {
	var pt Port
	if got := unsafe.Sizeof(pt); got > 192 || got%64 != 0 {
		t.Fatalf("flow.Port is %d bytes, want a multiple of 64 no larger than 192: one per node", got)
	}
	for name, off := range map[string]uintptr{
		"act":   unsafe.Offsetof(pt.act),
		"f":     unsafe.Offsetof(pt.f),
		"slots": unsafe.Offsetof(pt.slots),
		"arrN":  unsafe.Offsetof(pt.arrN),
		"nSrc":  unsafe.Offsetof(pt.nSrc),
		"nDst":  unsafe.Offsetof(pt.nDst),
	} {
		if off >= 64 {
			t.Errorf("Port.%s at offset %d, want it in the first cache line", name, off)
		}
	}
}

// TestFlowRecLayout holds the per-flow record to one cache line, so an event
// touches one line per flow it handles, and its int32 rate to the largest
// rate it stores: a local flow's rate is an access-link share, at most
// linkCap = rateQ/CPF, which shrinks as CPF grows, so CPF 1 bounds every
// CPF ≥ 1.
func TestFlowRecLayout(t *testing.T) {
	if got := unsafe.Sizeof(flowRec{}); got > 64 {
		t.Errorf("flowRec is %d bytes, want at most 64: one cache line per flow", got)
	}
	if f := New(Config{Characteristics: topo.Characteristics{Nodes: 2, CPF: 1}}); f.linkCap > math.MaxInt32 {
		t.Errorf("linkCap is %d at CPF 1: a local rate does not fit flowRec's int32", f.linkCap)
	}
}

// maxBytesPerNode is the committed ceiling on what a pumped 16k-node fabric
// allocates per node, building it and running it 20,000 cycles: the port
// record, the slot-indexed flow records and wheel nodes sized once in New,
// and the queues that grow to their high-water marks in the run. Measured
// 430 (345 building, 85 running) with a share class's members in
// per-remainder FIFOs, each a deque of its own, beside the heap, and 411
// (67 running) with all of them in the heap; 459 while a deque's first growth took
// 8 slots rather than 2 (115 running); at that growth ten parallel per-flow
// arrays (57 B a flow against the 48 B record) with 4 B class-heap entries
// measured 462, and flow tables grown on demand
// and a parked deque per (node, class) beside the port cost 566. With no
// collection during a run, all of it counts towards flow_scale's peak
// memory.
const maxBytesPerNode = 450

// TestFabricBytesPerNode is the flow tier's footprint gate: the bytes New
// and the run allocate per node, the pumps' own allocations excluded.
func TestFabricBytesPerNode(t *testing.T) {
	const nodes = 1 << 14
	var m0, m1, m2, m3 runtime.MemStats
	e := sim.New()
	runtime.ReadMemStats(&m0)
	f := New(Config{Characteristics: topo.Characteristics{Nodes: nodes, CPF: 4, HopLat: 6, AvgHops: 8, FabricFPC: 512}, SolveStride: 16})
	f.RegisterRoutersSharded(e, f.Partition(1))
	runtime.ReadMemStats(&m1)
	newPumps(e, f, 1995, 1024)
	runtime.ReadMemStats(&m2)
	e.Run(20_000)
	runtime.ReadMemStats(&m3)
	build := float64(m1.TotalAlloc-m0.TotalAlloc) / nodes
	run := float64(m3.TotalAlloc-m2.TotalAlloc) / nodes
	t.Logf("%.0f B/node: %.0f building, %.0f running (%d flows in flight)", build+run, build, run, f.nActive)
	if f.SolverStats().Departures < nodes {
		t.Fatalf("%d flows retired: the pumps did not load the fabric", f.SolverStats().Departures)
	}
	if build+run > maxBytesPerNode {
		t.Errorf("the fabric allocated %.0f B per node (%.0f building, %.0f running), want at most %d",
			build+run, build, run, maxBytesPerNode)
	}
}
