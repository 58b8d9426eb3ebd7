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

// FabricOpts parameterizes the modern-fabric scenario pack (DESIGN.md §11):
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
	// Shards is the engine shard count: 0 and 1 are the serial engine. Every
	// metric is bit-identical for any value.
	Shards int
	// Kinds defaults to {Plain, PFC, DCQCN, NIFDY}.
	Kinds []NICKind
	// Scenarios defaults to the incast, victim, and spread patterns sized
	// for the mesh.
	Scenarios []traffic.FabricScenario
	// WireDrop is the per-flit drop probability of the lossy column;
	// default 1/512. NIFDY runs the lossy column with retransmission on
	// (the §6 path); the other kinds take the losses.
	WireDrop float64
	// Lossy selects which wire conditions run: nil means both lossless and
	// lossy.
	Lossy []bool
	// Check arms the invariant monitors in every cell (test use; the
	// Sequence end-of-run accounting stays off because budget-bound runs
	// end mid-flight).
	Check *check.Options
}

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
	if o.Kinds == nil {
		o.Kinds = []NICKind{Plain, PFC, DCQCN, NIFDY}
	}
	if o.Scenarios == nil {
		o.Scenarios = []traffic.FabricScenario{
			traffic.IncastScenario(o.Width, o.Height, o.FanIn, o.Seed),
			traffic.VictimScenario(o.Width, o.Height, o.FanIn, o.Seed),
			traffic.SpreadScenario(o.Width, o.Height, o.FanIn, o.Seed),
		}
	}
	if o.WireDrop == 0 {
		o.WireDrop = 1.0 / 512
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
// destination's processor goroutine, and latency samples are kept per
// destination node, so the collection is race-free under any sharding and
// the merged metrics are bit-identical for every shard count.
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
	out := c.out[n]
	if len(out) == 0 && c.at[n] == nil {
		return nil // bystander: its NIC still ticks
	}
	ids := packet.NewNodeIDs(n)
	return func(p *node.Proc) {
		if len(out) == 0 {
			for {
				c.take(n, p, p.Recv())
			}
		}
		for {
			for _, f := range out {
				pk := p.Alloc()
				pk.ID = ids.Next()
				pk.Src = n
				pk.Dst = f.Dst
				pk.Words = c.words
				// An endless stream is one long message: keep requesting the
				// bulk dialog (never closed), so NIFDY flows run W-windowed
				// instead of one scalar packet per round trip. The plain
				// kinds ignore the bit.
				pk.BulkReq = true
				p.Send(pk)
				for p.HasPending() {
					c.take(n, p, p.Recv())
				}
			}
		}
	}
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

// FabricCell runs one (scenario, kind, wire condition) cell and returns its
// metrics.
func FabricCell(o FabricOpts, sc traffic.FabricScenario, kind NICKind, lossy bool) FabricPoint {
	o.defaults()
	spec := FabricMesh(o.Width, o.Height)
	var fc router.FabricConfig
	params := spec.Params
	if lossy {
		fc.WireDrop = o.WireDrop
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
	// Reduced software overheads (the Figure 4 device): the offered load must
	// exceed the fabric's capacity at the sink, or every NIC kind would tie
	// at the processor's software receive rate.
	fastCosts := node.Costs{Send: 10, Recv: 14, Poll: 6, ReorderPenalty: 4}
	s := Build(BuildOpts{
		Net: spec, Kind: kind, Seed: o.Seed, Params: params, Fabric: fc,
		Costs: fastCosts, EngineShards: o.Shards, Check: o.Check,
		Program: col.Program,
	})
	defer s.Close()
	s.Eng.Run(o.Cycles)
	delivered, p99, fairness := col.point()
	return FabricPoint{
		Scenario: sc.Name, Kind: kind.String(), Lossy: lossy,
		Delivered: delivered, P99: p99, Fairness: fairness,
	}
}

// FabricExperiment runs the full scenario pack: every configured scenario x
// NIC kind x wire condition, cells in parallel, each cell internally sharded
// and bit-identical for any Shards value.
func FabricExperiment(o FabricOpts) []FabricPoint {
	o.defaults()
	points := make([]FabricPoint, 0, len(o.Scenarios)*len(o.Kinds)*len(o.Lossy))
	var tasks []func()
	for _, sc := range o.Scenarios {
		for _, lossy := range o.Lossy {
			for _, kind := range o.Kinds {
				sc, lossy, kind := sc, lossy, kind
				points = append(points, FabricPoint{})
				i := len(points) - 1
				tasks = append(tasks, func() {
					points[i] = FabricCell(o, sc, kind, lossy)
				})
			}
		}
	}
	runParallel(tasks)
	return points
}

// FabricTable renders points the way the other figure entry points do.
func FabricTable(points []FabricPoint) *stats.Table {
	t := stats.NewTable("Modern-fabric baselines: NIFDY vs PFC/DCQCN under incast (DESIGN.md §11)",
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
