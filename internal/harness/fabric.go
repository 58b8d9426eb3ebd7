package harness

import (
	"fmt"
	"sort"

	"nifdy/internal/check"
	"nifdy/internal/core"
	"nifdy/internal/node"
	"nifdy/internal/packet"
	"nifdy/internal/router"
	"nifdy/internal/sim"
	"nifdy/internal/stats"
	"nifdy/internal/topo"
	"nifdy/internal/topo/mesh"
	"nifdy/internal/traffic"
)

// FabricMesh returns the modern-fabric testbed: a width x height wormhole
// mesh. Unlike the paper's 64-node phase workloads (§2.4.3, W=2), the fabric
// scenarios stream long-lived flows across up to 17x17 nodes, so the bulk
// window is sized toward the fabric's bandwidth-delay product: a W=2 dialog
// on a ~30-hop round trip would idle the wire between acks and understate
// every NIFDY column.
func FabricMesh(width, height int) NetSpec {
	return NetSpec{
		Name: fmt.Sprintf("mesh %dx%d", width, height),
		Build: func(seed uint64, o topo.IfaceOptions) topo.Network {
			// Deep per-VC buffers (vs the paper's 2-flit CM-5-era depth): a
			// modern switch absorbs a whole blocked packet, so a worm parked
			// at a hotspot releases its upstream channels. At depth 2 a
			// blocked 10-flit worm spans five routers and holds every VC on
			// its path, which makes any injection policy — bounded or not —
			// saturate the same tree.
			return mesh.New(mesh.Config{
				Dims: []int{width, height}, Iface: o, BufFlits: 16,
			})
		},
		Params:        core.Config{O: 4, B: 32, D: 1, W: 16},
		InOrderFabric: true,
	}
}

// FabricOpts parameterizes the modern-fabric scenario pack (DESIGN.md §10):
// NIFDY against PFC, DCQCN, and the plain NIC under incast, victim-flow, and
// congestion-spreading traffic, on lossless and lossy wires.
type FabricOpts struct {
	// Width and Height are the mesh dimensions; default 17x17 (289 nodes,
	// sink at the center, node 144).
	Width, Height int
	// FanIn is the incast width; default 256.
	FanIn int
	// Cycles is the measurement budget; default 100,000.
	Cycles sim.Cycle
	// Seed drives sender placement and the lossy-wire streams; default 1995.
	Seed uint64
	// Shards is FabricCell's engine shard request (BuildOpts.EngineShards):
	// 0 and 1 are the serial engine. Every metric is bit-identical for any
	// value. FabricExperiment's cells are serial.
	Shards int
	// Scenarios defaults to the incast, victim, and spread patterns sized
	// for the mesh.
	Scenarios []traffic.FabricScenario
	// Lossy selects which wire conditions run: nil means both lossless and
	// lossy.
	Lossy []bool
	// Check arms the invariant monitors in every cell (test use; the
	// Sequence end-of-run accounting stays off because budget-bound runs
	// end mid-flight).
	Check *check.Options
}

// fabricKinds are the NIC kinds of the scenario pack, in column order.
var fabricKinds = []NICKind{Plain, PFC, DCQCN, NIFDY}

// fabricWireDrop is the per-flit drop probability of the lossy column. NIFDY
// runs it with retransmission on (the §6 path); the other kinds take the
// losses.
const fabricWireDrop = 1.0 / 512

func (o *FabricOpts) defaults() {
	if o.Width == 0 {
		o.Width = 17
	}
	if o.Height == 0 {
		o.Height = 17
	}
	if o.FanIn == 0 {
		o.FanIn = 256
	}
	if o.Cycles == 0 {
		o.Cycles = 100_000
	}
	if o.Seed == 0 {
		o.Seed = 1995
	}
	if o.Scenarios == nil {
		o.Scenarios = []traffic.FabricScenario{
			traffic.IncastScenario(o.Width, o.Height, o.FanIn, o.Seed),
			traffic.VictimScenario(o.Width, o.Height, o.FanIn, o.Seed),
			traffic.SpreadScenario(o.Width, o.Height, o.FanIn, o.Seed),
		}
	}
	if o.Lossy == nil {
		o.Lossy = []bool{false, true}
	}
}

// FabricPoint is one measured cell of the modern-fabric comparison. The JSON
// form is the nifdy-bench baseline schema for -exp fabric.
type FabricPoint struct {
	// Scenario and Kind name the cell; Lossy marks the wire condition.
	Scenario string `json:"fabric"`
	Kind     string `json:"nic_kind"`
	Lossy    bool   `json:"loss"`
	// Delivered is the total packets accepted across all flows within the
	// budget.
	Delivered int64 `json:"delivered"`
	// P99 is the 99th-percentile end-to-end packet latency in cycles
	// (NIC admission to processor acceptance).
	P99 sim.Cycle `json:"p99_cycles"`
	// Fairness is Jain's index over per-flow delivered counts: 1 is
	// perfectly equal shares, 1/flows is total capture by one flow.
	Fairness float64 `json:"fairness"`
}

// fabricCollector builds the per-node programs of one scenario and gathers
// the per-flow metrics. Each flow's counters are written only by its
// destination's processor, and latency samples are kept per destination
// node, so the collection is race-free under any sharding and the merged
// metrics are bit-identical for every shard count.
type fabricCollector struct {
	words     int
	out       [][]traffic.FabricFlow
	at        []map[int]int // per dst node: src -> flow index
	delivered []int64
	lat       [][]sim.Cycle
}

func newFabricCollector(sc traffic.FabricScenario) *fabricCollector {
	words := sc.Words
	if words == 0 {
		words = 8
	}
	c := &fabricCollector{
		words:     words,
		out:       make([][]traffic.FabricFlow, sc.Nodes),
		at:        make([]map[int]int, sc.Nodes),
		delivered: make([]int64, len(sc.Flows)),
		lat:       make([][]sim.Cycle, sc.Nodes),
	}
	for fi, f := range sc.Flows {
		c.out[f.Src] = append(c.out[f.Src], f)
		if c.at[f.Dst] == nil {
			c.at[f.Dst] = map[int]int{}
		}
		c.at[f.Dst][f.Src] = fi
	}
	return c
}

// take retires one arrival at node n, crediting its flow.
//
//lint:allow(hotalloc) one latency sample per delivered packet, kept for the p99: geometric growth of one slice per destination node
func (c *fabricCollector) take(n int, p *node.Proc, pk *packet.Packet) {
	if fi, ok := c.at[n][pk.Src]; ok {
		c.delivered[fi]++
		c.lat[n] = append(c.lat[n], pk.AcceptedAt-pk.CreatedAt)
	}
	p.Free(pk)
}

// Program returns node n's program: senders round-robin over their flows,
// blasting until the budget expires and servicing arrivals between sends;
// pure receivers sit in a poll loop.
func (c *fabricCollector) Program(n int) node.Program {
	if len(c.out[n]) == 0 && c.at[n] == nil {
		return nil // bystander: its NIC still ticks
	}
	m := &collector{c: c, n: n, ids: packet.NewNodeIDs(n)}
	return func(p *node.Proc) { p.Run(m) }
}

// collector is one node's program; it never ends.
type collector struct {
	c   *fabricCollector
	n   int
	ids *packet.IDSource
	// next is the flow the next packet goes to; sent records that a send
	// has completed, so arrivals are serviced before the next one.
	next int
	sent bool
	// recv marks a Recv in flight: its packet is taken at the next step.
	recv bool
}

// Step implements node.Machine.
func (m *collector) Step(p *node.Proc) bool {
	c, out := m.c, m.c.out[m.n]
	if m.recv {
		c.take(m.n, p, p.Received())
	}
	m.recv = len(out) == 0 || m.sent && p.HasPending()
	if m.recv {
		p.IssueRecv()
		return true
	}
	f := out[m.next]
	m.next = (m.next + 1) % len(out)
	pk := p.Alloc()
	pk.ID = m.ids.Next()
	pk.Src = m.n
	pk.Dst = f.Dst
	pk.Words = int32(c.words)
	// An endless stream is one long message: keep requesting the bulk
	// dialog (never closed), so NIFDY flows run W-windowed instead of one
	// scalar packet per round trip. The plain kinds ignore the bit.
	pk.BulkReq = true
	m.sent = true
	p.IssueSend(pk)
	return true
}

// point folds the collected counters into the cell's metrics.
func (c *fabricCollector) point() (delivered int64, p99 sim.Cycle, fairness float64) {
	var sum, sumsq float64
	for _, d := range c.delivered {
		delivered += d
		sum += float64(d)
		sumsq += float64(d) * float64(d)
	}
	if sumsq > 0 {
		fairness = sum * sum / (float64(len(c.delivered)) * sumsq)
	}
	var all []sim.Cycle
	for _, l := range c.lat {
		all = append(all, l...)
	}
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		p99 = all[len(all)*99/100]
	}
	return delivered, p99, fairness
}

// fabricCell is one serial (scenario, kind, wire condition) cell, its
// metrics stored in pt; o carries its defaults.
func fabricCell(o FabricOpts, sc traffic.FabricScenario, kind NICKind, lossy bool, pt *FabricPoint) cell {
	spec := FabricMesh(o.Width, o.Height)
	var fc router.FabricConfig
	params := spec.Params
	if lossy {
		fc.WireDrop = fabricWireDrop
		if kind == NIFDY {
			// Loss recovery is NIFDY's §6 story; the baselines have none.
			// The default timeout (4096) is sized for the 64-node phase
			// workloads; on this fabric's ~100-cycle RTTs it would idle a
			// stalled flow for several sink-service periods per loss.
			params.Retransmit = true
			params.RetransmitTimeout = 1024
		}
	}
	col := newFabricCollector(sc)
	return cell{
		opts: BuildOpts{
			Net: spec, Kind: kind, Seed: o.Seed, Params: params, Fabric: fc,
			Costs: fastCosts, Check: o.Check,
			Program: col.Program,
		},
		budget: o.Cycles,
		read: func(*Sim) {
			delivered, p99, fairness := col.point()
			*pt = FabricPoint{
				Scenario: sc.Name, Kind: kind.String(), Lossy: lossy,
				Delivered: delivered, P99: p99, Fairness: fairness,
			}
		},
	}
}

// FabricCell runs one (scenario, kind, wire condition) cell and returns its
// metrics.
func FabricCell(o FabricOpts, sc traffic.FabricScenario, kind NICKind, lossy bool) FabricPoint {
	o.defaults()
	var pt FabricPoint
	c := fabricCell(o, sc, kind, lossy, &pt)
	c.opts.EngineShards = o.Shards
	c.run()
	return pt
}

// FabricExperiment runs the full scenario pack: every configured scenario x
// NIC kind x wire condition, one serial simulation per cell.
func FabricExperiment(o FabricOpts) []FabricPoint {
	o.defaults()
	points := make([]FabricPoint, len(o.Scenarios)*len(o.Lossy)*len(fabricKinds))
	cells := make([]cell, 0, len(points))
	for _, sc := range o.Scenarios {
		for _, lossy := range o.Lossy {
			for _, kind := range fabricKinds {
				cells = append(cells, fabricCell(o, sc, kind, lossy, &points[len(cells)]))
			}
		}
	}
	runCells(cells)
	return points
}

// FabricTable renders points the way the other figure entry points do.
func FabricTable(points []FabricPoint) *stats.Table {
	t := stats.NewTable("Modern-fabric baselines: NIFDY vs PFC/DCQCN under incast (DESIGN.md §10)",
		"scenario", "wires", "nic", "delivered", "p99 lat", "fairness")
	for _, p := range points {
		wires := "lossless"
		if p.Lossy {
			wires = "lossy"
		}
		t.Row(p.Scenario, wires, p.Kind, p.Delivered, int64(p.P99), p.Fairness)
	}
	return t
}
