package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sort"
	"time"

	"nifdy/internal/harness"
	"nifdy/internal/nic"
	"nifdy/internal/rng"
	"nifdy/internal/sim"
	"nifdy/internal/traffic"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// executions is how many times an untraced run executes the workload: set-up,
// then the same measured window. Both are the same simulated work each time,
// so the repeats are the same-seed re-executions that must agree on every
// counter, the mean set-up is the run's setup_s, and each chunk's fastest
// execution is its time. Host noise only ever adds time; on this 2-CPU
// virtual machine it adds 10 to 40% for seconds on end, and the fastest of
// two executions of identical work drops most of it.
const executions = 2

// options are the arguments of one run.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	// rigs are the rigs' sizes; the smoke test shrinks them.
	rigs rigSizes
}

// run collects what one run of one workload found. An operation is one
// simulation built and run; failed counts the checks that did not hold.
type run struct {
	attempted, failed int
	// accepted is the packets accepted in the exact window: the one number a
	// traced and an untraced run of one seed must share.
	accepted int64
	// walls are the measured chunks' wall times, kept for the result file.
	walls []time.Duration
	m     metrics
	tr    *tracer
}

func newRun() *run { return &run{m: metrics{}, tr: newTracer()} }

func (r *run) fail(format string, a ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "bench: FAILED: "+format+"\n", a...)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fastest folds one more execution's chunk times into best, chunk by chunk.
func fastest(best, walls []time.Duration) []time.Duration {
	if best == nil {
		return walls
	}
	for i, d := range walls {
		best[i] = min(best[i], d)
	}
	return best
}

// rate is work per second, every chunk being work.
func rate(work float64, walls []time.Duration) float64 {
	var wall time.Duration
	for _, d := range walls {
		wall += d
	}
	return work * float64(len(walls)) / wall.Seconds()
}

// endToEnd sets the four end-to-end metrics.
func (r *run) endToEnd(nodeCyclesPerS float64, setup []float64, pktsPerMcycle float64) {
	r.m.set("node_cycles_per_s", nodeCyclesPerS, "1/s")
	r.m.set("setup_s", median(setup), "s")
	rss, err := peakRSSMB()
	if err != nil {
		r.fail("peak_rss_mb: %v", err)
	}
	r.m.set("peak_rss_mb", rss, "MB")
	r.m.set("sim_pkts_per_mcycle", pktsPerMcycle, "1/Mcycle")
}

// layered is what a traced run saw of the layers. What a workload cannot see,
// because it has no such layer or cannot wrap it, stays zero.
type layered struct {
	cycles           sim.Cycle     // simulated cycles the times below were spent on
	wall, core, node time.Duration // the whole run, and inside the wrapped NICs and processors
	mallocs          uint64        // heap objects allocated meanwhile
	overhead         float64       // of tracing, in percent

	// Simulated statistics of the exact window.
	exactCycles          sim.Cycle
	coreTicks, nodeTicks int64
	flitsMean            float64
	exact                nic.Stats
	points               []harness.FabricPoint // fabric_incast's, in fabricKinds order
}

// perLayer sets the per-layer metrics a traced run itself measures; the rigs
// add theirs.
func (r *run) perLayer(l layered) {
	perCycle := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(l.cycles) }
	r.m.set("core.tick_ns_per_cycle", perCycle(l.core), "ns")
	r.m.set("node.tick_ns_per_cycle", perCycle(l.node), "ns")
	r.m.set("rest.ns_per_cycle", perCycle(l.wall-l.core-l.node), "ns")
	r.m.set("core.ticks_per_cycle", float64(l.coreTicks)/float64(l.exactCycles), "count")
	r.m.set("node.ticks_per_cycle", float64(l.nodeTicks)/float64(l.exactCycles), "count")
	r.m.set("router.buffered_flits_mean", l.flitsMean, "flits")
	r.m.set("core.bulk_grant_ratio", ratio(l.exact.BulkGrants, l.exact.BulkGrants+l.exact.BulkRejects), "ratio")
	r.m.set("core.acks_per_pkt", ratio(l.exact.AcksSent, l.exact.Accepted), "ratio")
	r.m.set("packet.mallocs_per_kcycle", 1e3*float64(l.mallocs)/float64(l.cycles), "count")
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.m.set("packet.heap_inuse_mb", float64(mem.HeapInuse)/(1<<20), "MB")
	r.m.set("trace.overhead_pct", l.overhead, "%")
	for i, k := range fabricKinds {
		var p harness.FabricPoint
		if l.points != nil {
			p = l.points[i]
		}
		r.m.set("nic.delivered."+k.name, float64(p.Delivered), "count")
		r.m.set("nic.p99_latency_cycles."+k.name, float64(p.P99), "cycles")
		r.m.set("nic.fairness."+k.name, p.Fairness, "ratio")
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// heapAllocs is the count of heap objects allocated so far. Unlike
// runtime.ReadMemStats, reading it does not stop the world, so it can be read
// at every chunk without disturbing the chunk that follows.
func heapAllocs() uint64 {
	rtmetrics.Read(allocSample[:])
	return allocSample[0].Value.Uint64()
}

// allocSample is reused so that reading the count allocates nothing itself.
var allocSample = [1]rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// setUp builds the workload's simulation and runs its warm-up.
func (r *run) setUp(build func() *cell, warm sim.Cycle) (c *cell, seconds float64) {
	t0 := time.Now()
	c = build()
	c.eng.Run(warm)
	r.attempted++
	return c, time.Since(t0).Seconds()
}

// check holds c, after cycles measured cycles of which the exact window
// accepted accepted packets, to what every execution must satisfy.
func (r *run) check(w workload, c *cell, cycles sim.Cycle, accepted int64) {
	if now := c.eng.Now(); now != w.warm+cycles {
		r.fail("%s: stopped at cycle %d of %d", w.name, now, w.warm+cycles)
	}
	if sent := c.stats().Sent; accepted <= 0 || accepted > sent {
		r.fail("%s: accepted %d packets of %d sent", w.name, accepted, sent)
	}
}

// stepped runs, untraced, one workload that is a cell. It executes it twice:
// set up, then step a chunk at a time. The first execution goes on for half
// of o.seconds and at least w.exact cycles; the second steps as many chunks.
// The two must agree on every counter after the warm-up and after the exact
// window, and flit_heavy_sharded also with its one-shard reference after the
// warm-up.
func (r *run) stepped(w workload, o options) {
	defer threads(w.threads)()
	var (
		best        []time.Duration
		setup       []float64
		warm, exact nic.Stats // the first execution's, after the warm-up and over the exact window
		nodes       int
	)
	for e := 0; e < executions; e++ {
		c, s := r.setUp(func() *cell { return w.build(o.seed) }, w.warm)
		setup = append(setup, s)
		nodes = c.net.Nodes()
		warmed := c.stats()
		var walls []time.Duration
		var window nic.Stats
		var cycles sim.Cycle
		start := time.Now()
		for e == 0 && (cycles < w.exact || time.Since(start).Seconds() < o.seconds/executions) ||
			e > 0 && len(walls) < len(best) {
			t0 := time.Now()
			c.eng.Run(w.chunk)
			walls = append(walls, time.Since(t0))
			if cycles += w.chunk; cycles == w.exact {
				window = sub(c.stats(), warmed)
			}
		}
		r.check(w, c, cycles, window.Accepted)
		if e == 0 {
			warm, exact = warmed, window
			if w.reference != nil {
				ref, _ := r.setUp(func() *cell { return w.reference(o.seed) }, w.warm)
				if st := ref.stats(); st != warm {
					r.fail("%s: reference has %+v after warm-up, measured simulation %+v", w.name, st, warm)
				}
				ref.close()
			}
		} else if warmed != warm || window != exact {
			r.fail("%s: execution %d has %+v after warm-up and %+v over the exact window, execution 0 %+v and %+v",
				w.name, e, warmed, window, warm, exact)
		}
		best = fastest(best, walls)
		c.close()
		debug.FreeOSMemory() // so that peak memory is one simulation's, not two
	}
	r.accepted, r.walls = exact.Accepted, best
	r.endToEnd(rate(float64(nodes)*float64(w.chunk), best), setup, 1e6*float64(exact.Accepted)/float64(w.exact))
}

// traced runs one workload that is a cell for its per-layer metrics: set up
// once, then step for o.seconds and at least w.exact cycles. Where the
// workload can be wired with timing wrappers it steps that wiring and
// harness.Build's in turn, holding the two to the same counters at every
// chunk, and what the wrapped chunks take longer is the tracing overhead.
func (r *run) traced(w workload, o options) {
	defer threads(w.threads)()
	build := func() *cell { return w.build(o.seed) }
	var ref *cell
	if w.traced != nil {
		ref, _ = r.setUp(build, w.warm)
		defer ref.close()
		build = func() *cell { return w.traced(o.seed, r.tr) }
	}
	c, _ := r.setUp(build, w.warm)
	defer c.close()
	warm := c.stats()
	if ref != nil && ref.stats() != warm {
		r.fail("%s: harness.Build has %+v after warm-up, the traced simulation %+v", w.name, ref.stats(), warm)
	}
	var (
		overheads  []float64 // per chunk: the wrapped simulation's wall over harness.Build's, less 1
		cycles     sim.Cycle
		flits      int64 // fabric occupancy, summed over the exact window's chunk ends
		l          layered
		core, node = r.tr.core, r.tr.node // the layers' accumulators before the first chunk
	)
	start := time.Now()
	for cycles < w.exact || time.Since(start).Seconds() < o.seconds {
		var refWall time.Duration
		if ref != nil {
			t0 := time.Now()
			ref.eng.Run(w.chunk)
			refWall = time.Since(t0)
		}
		coreAt, nodeAt, acceptedAt := r.tr.core, r.tr.node, c.stats().Accepted
		l.mallocs -= heapAllocs() // the two reads bracket the chunk; their difference accumulates
		t0 := time.Now()
		c.eng.Run(w.chunk)
		d := time.Since(t0)
		l.mallocs += heapAllocs()
		l.wall += d
		cycles += w.chunk
		st, buffered := c.stats(), int64(c.net.BufferedFlits())
		if cycles <= w.exact {
			flits += buffered
		}
		if cycles == w.exact {
			l.exact = sub(st, warm)
			l.coreTicks, l.nodeTicks = r.tr.core.ticks-core.ticks, r.tr.node.ticks-node.ticks
		}
		r.tr.chunk(t0, d, r.tr.core.since(coreAt), r.tr.node.since(nodeAt), map[string]int64{
			"cycles": int64(w.chunk), "accepted": st.Accepted - acceptedAt,
			"buffered_flits": buffered,
		})
		if ref != nil {
			overheads = append(overheads, 100*(d-refWall).Seconds()/refWall.Seconds())
			if rs := ref.stats(); rs != st {
				r.fail("%s: after %d cycles the traced simulation has %+v, harness.Build's %+v", w.name, cycles, st, rs)
				break
			}
		}
	}
	r.check(w, c, cycles, l.exact.Accepted)
	r.accepted = l.exact.Accepted
	l.cycles, l.exactCycles = cycles, w.exact
	l.core, l.node = r.tr.core.since(core).scaled(), r.tr.node.since(node).scaled()
	l.flitsMean = float64(flits) / float64(w.exact/w.chunk)
	if ref != nil {
		l.overhead = median(overheads)
	}
	r.perLayer(l)
}

// round runs fabric_incast's four cells one after the other on scenario
// number i of the seed, each for cycles, and returns their points in
// fabricKinds order. The seed places the incast's senders, and placement
// alone moves the packets delivered by a sixth between seeds, so a run does
// not stand on one scenario: every round takes the next. In a traced run
// each cell is a child span of the round's.
func (r *run) round(o options, i int, cycles sim.Cycle, name string) []harness.FabricPoint {
	seed := rng.NewStream(o.seed, uint64(i)).Uint64()
	sc := traffic.IncastScenario(fabricSide, fabricSide, fabricFanIn, seed)
	fo := harness.FabricOpts{
		Width: fabricSide, Height: fabricSide, FanIn: fabricFanIn,
		Cycles: cycles, Seed: seed, Shards: 1,
	}
	points := make([]harness.FabricPoint, len(fabricKinds))
	cells := make([]time.Duration, len(fabricKinds))
	start := time.Now()
	for i, k := range fabricKinds {
		t0 := time.Now()
		points[i] = harness.FabricCell(fo, sc, k.kind, k.lossy)
		cells[i] = time.Since(t0)
		r.attempted++
	}
	if o.trace {
		id := r.tr.add(0, name, start, time.Since(start), map[string]int64{"cycles": int64(cycles)})
		at := start
		for i, k := range fabricKinds {
			r.tr.add(id, "fabric.cell."+k.name, at, cells[i], map[string]int64{"delivered": points[i].Delivered})
			at = at.Add(cells[i])
		}
	}
	return points
}

// fabric runs fabric_incast. Set-up is one short round, which grows the heap
// and faults the code in; a chunk is one round, Build included. The exact
// window is the first fabricRounds rounds: its delivered counts are summed,
// its latencies and fairness averaged, and the NIFDY-over-PFC floor is held
// on the sums. Untraced it executes twice like the other workloads, the second
// time the same rounds, which must give the same points; traced, once, for
// o.seconds.
func (r *run) fabric(o options) {
	defer threads(1)() // every cell runs at one shard
	n := executions
	if o.trace {
		n = 1
	}
	var (
		best  []time.Duration
		setup []float64
		first string // the first execution's points, warm-up round and all
		l     layered
	)
	for e := 0; e < n; e++ {
		t0 := time.Now()
		got := []any{r.round(o, 0, fabricWarm, "warm.round")}
		setup = append(setup, time.Since(t0).Seconds())
		l = layered{points: make([]harness.FabricPoint, len(fabricKinds))}
		var walls []time.Duration
		l.mallocs -= heapAllocs()
		start := time.Now()
		for e == 0 && (len(walls) < fabricRounds || time.Since(start).Seconds() < o.seconds/float64(n)) ||
			e > 0 && len(walls) < len(best) {
			t0 := time.Now()
			points := r.round(o, len(walls), fabricCycles, "run.round")
			walls = append(walls, time.Since(t0))
			got = append(got, points)
			if len(walls) > fabricRounds {
				continue
			}
			for i, p := range points {
				l.points[i].Delivered += p.Delivered
				l.points[i].P99 += p.P99 / fabricRounds
				l.points[i].Fairness += p.Fairness / fabricRounds
				if p.Delivered <= 0 {
					r.fail("%s: round %d, %s delivered nothing", fabricIncast, len(walls)-1, fabricKinds[i].name)
				}
			}
		}
		l.wall = time.Since(start)
		l.mallocs += heapAllocs()
		if e == 0 {
			first = fmt.Sprint(got)
		} else if fmt.Sprint(got) != first {
			r.fail("%s: execution %d gave %v, execution 0 %s", fabricIncast, e, got, first)
		}
		best = fastest(best, walls)
	}
	if nifdy, pfc := l.points[0].Delivered, l.points[2].Delivered; float64(nifdy) < nifdyFloor*float64(pfc) {
		r.fail("%s: NIFDY delivered %d, under %.2f x PFC's %d", fabricIncast, nifdy, nifdyFloor, pfc)
	}
	r.accepted = l.points[0].Delivered + l.points[1].Delivered // the NIFDY cells only: lossless and lossy
	r.walls = best
	if !o.trace {
		nodes := fabricSide * fabricSide
		r.endToEnd(rate(float64(len(fabricKinds)*nodes)*float64(fabricCycles), best), setup,
			1e6*float64(r.accepted)/float64(2*fabricRounds*fabricCycles))
		return
	}
	// No NIC or processor of these cells can be wrapped (the collector and the
	// wiring are private to harness), so all the wall time is unattributed.
	l.cycles = sim.Cycle(len(best)*len(fabricKinds)) * fabricCycles
	l.exactCycles = sim.Cycle(fabricRounds*len(fabricKinds)) * fabricCycles
	r.perLayer(l)
}
