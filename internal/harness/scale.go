package harness

import (
	"time"

	"nifdy/internal/packet"
	"nifdy/internal/rng"
	"nifdy/internal/router"
	"nifdy/internal/sim"
	"nifdy/internal/topo"
)

// ScaleOpts parameterizes ScaleBench.
type ScaleOpts struct {
	// Cycles is the simulated-cycle budget; zero selects 20,000.
	Cycles sim.Cycle
	// Seed drives destination choice and the fabric build.
	Seed uint64
	// Shards is the engine shard count; 0 and 1 are the serial engine.
	Shards int
	// PoolPerNode is each injector's pre-allocated packet pool; zero
	// selects 4. The pool bounds a node's in-flight packets — injectors
	// recycle delivered packets instead of allocating on the tick path.
	PoolPerNode int
}

// ScaleResult is one ScaleBench measurement. NodeCyclesPerSec — simulated
// node-cycles per wall-clock second — is the scale metric: it normalizes
// fabric size away so a 64-node cycle-accurate run and a 100k-node
// flow-level run are directly comparable.
type ScaleResult struct {
	Name             string  `json:"name"`
	Nodes            int     `json:"nodes"`
	Cycles           int64   `json:"cycles"`
	Shards           int     `json:"shards"`
	WallNS           int64   `json:"wall_ns"`
	Delivered        int64   `json:"delivered_packets"`
	NodeCyclesPerSec float64 `json:"node_cycles_per_sec"`
}

// scaleInjector drives one node's port from inside the engine: it recycles
// every delivered packet into its pool and keeps the injection slot busy
// with uniform-random traffic while the pool lasts. No per-node goroutine,
// no allocation after build — the per-node footprint is what lets a single
// process carry 100k+ injectors. It participates in idle skipping, so a
// flow-mode fabric advances event to event instead of cycle by cycle.
type scaleInjector struct {
	pt    router.Port
	node  int
	nodes int
	r     *rng.Source
	ids   *packet.IDSource
	// pool is a fixed-capacity ring of recyclable packets: head/cnt index
	// into it, so refilling never appends (and never allocates) on the
	// tick path. Deliveries recycle into the *receiver's* pool; under the
	// uniform traffic here pools stay balanced, and a full pool simply
	// forgets the reference.
	pool      []*packet.Packet
	head, cnt int
	delivered int64
}

func (in *scaleInjector) Tick(now sim.Cycle) {
	progress := in.pt.Pump(now)
	for {
		p, ok := in.pt.Deliver(now, nil)
		if !ok {
			break
		}
		in.delivered++
		if in.cnt < len(in.pool) {
			in.pool[(in.head+in.cnt)%len(in.pool)] = p
			in.cnt++
		}
		progress = true
	}
	for in.cnt > 0 && in.pt.CanAccept(packet.Request) {
		p := in.pool[in.head]
		in.head = (in.head + 1) % len(in.pool)
		in.cnt--
		dst := in.r.Intn(in.nodes - 1)
		if dst >= in.node {
			dst++
		}
		*p = packet.Packet{ID: in.ids.Next(), Src: in.node, Dst: dst,
			Words: 8, Class: packet.Request, Kind: packet.Data}
		in.pt.StartSend(now, p)
		progress = true
	}
	// The NIFDY NIC's idle contract: sleep to the next arrival when fully
	// quiescent, to BlockedBound when holding work but stuck (a flit port
	// reports progress from Pump while mid-transmission and so stays awake;
	// a flow port's busy slot resolves at its drain bound instead).
	if in.pt.Quiet() {
		in.pt.Activity().Sleep(in.pt.NextArrivalAt())
	} else if !progress {
		in.pt.Activity().Sleep(in.pt.BlockedBound(now))
	}
}

func (in *scaleInjector) Activity() *sim.Activity { return in.pt.Activity() }

// ScaleBench measures a fabric's simulation throughput under saturation:
// every node keeps its injection slot busy with uniform-random 8-flit
// packets, delivered packets recycle into the sender's pool. It reports
// simulated node-cycles per wall second — the figure of merit the flow
// engine's 100k-node runs are gated on against the cycle-accurate baseline.
//
//lint:allow(wallclock) measuring wall-clock throughput is this function's purpose; no simulated state depends on the reading
func ScaleBench(spec NetSpec, o ScaleOpts) ScaleResult {
	if o.Cycles <= 0 {
		o.Cycles = 20_000
	}
	if o.PoolPerNode <= 0 {
		o.PoolPerNode = 4
	}
	net := spec.Build(o.Seed, topo.IfaceOptions{Seed: o.Seed})
	nodes := net.Nodes()
	shards := min(max(o.Shards, 1), nodes)
	eng := sim.New()
	if shards > 1 {
		eng = sim.NewParallel(shards)
	}
	shardOf := net.Partition(shards)
	net.RegisterRoutersSharded(eng, shardOf)
	inj := make([]scaleInjector, nodes)
	pkts := make([]packet.Packet, nodes*o.PoolPerNode)
	for n := 0; n < nodes; n++ {
		in := &inj[n]
		in.pt = net.Iface(n)
		in.node, in.nodes = n, nodes
		in.r = rng.NewStream(o.Seed^0x5CA1E, uint64(n))
		in.ids = packet.NewNodeIDs(n)
		in.pool = make([]*packet.Packet, o.PoolPerNode)
		in.cnt = o.PoolPerNode
		for i := range in.pool {
			in.pool[i] = &pkts[n*o.PoolPerNode+i]
		}
		eng.RegisterSharded(shardOf[n], in)
	}
	start := time.Now()
	eng.Run(o.Cycles)
	wall := time.Since(start)
	var delivered int64
	for n := range inj {
		delivered += inj[n].delivered
	}
	nodeCycles := float64(nodes) * float64(o.Cycles)
	return ScaleResult{
		Name: spec.Name, Nodes: nodes, Cycles: int64(o.Cycles),
		Shards: shards, WallNS: wall.Nanoseconds(), Delivered: delivered,
		NodeCyclesPerSec: nodeCycles / wall.Seconds(),
	}
}
