package harness

import (
	"runtime"
	"sync"

	"nifdy/internal/apps/cshift"
	"nifdy/internal/apps/em3d"
	"nifdy/internal/apps/radix"
	"nifdy/internal/core"
	"nifdy/internal/node"
	"nifdy/internal/sim"
	"nifdy/internal/stats"
	"nifdy/internal/topo"
	"nifdy/internal/traffic"
)

// runParallel executes independent simulations on up to NumCPU workers.
// Each simulation is deterministic regardless of its own shard count, so
// this composes with intra-simulation sharding (SynthOpts.Shards).
func runParallel(tasks []func()) {
	if len(tasks) == 0 {
		return
	}
	workers := runtime.NumCPU()
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers < 1 {
		workers = 1
	}
	// Buffer the full task list so the feeding loop never blocks: the workers
	// start draining a fully loaded, already-closed channel instead of
	// rendezvousing with the producer one task at a time.
	ch := make(chan func(), len(tasks))
	for _, f := range tasks {
		ch <- f
	}
	close(ch)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for f := range ch {
				f()
			}
		}()
	}
	wg.Wait()
}

// SynthOpts parameterizes the Figure 2/3 synthetic-traffic experiments.
type SynthOpts struct {
	// Cycles is the measurement budget; the paper uses 1,000,000.
	Cycles sim.Cycle
	// Seed drives all randomness.
	Seed uint64
	// Networks defaults to StandardNetworks.
	Networks []NetSpec
	// Kinds defaults to {Plain, BuffersOnly, NIFDY}.
	Kinds []NICKind
	// Shards is the per-simulation engine shard count: 0 and 1 both build
	// the serial engine (measured faster than two shards on a 2-CPU host),
	// larger values shard explicitly. Results are bit-identical for any
	// value.
	Shards int
	// Window is the conservative synchronization window W in cycles
	// (default 1, the paper's model: a boundary after every cycle). W is a
	// model parameter: channels gain up to W-1 cycles of latency, so
	// delivered counts depend on it — but for a fixed W they are
	// bit-identical at every shard count, and W >= 4 amortizes the sharded
	// engine's barrier.
	Window int
}

func (o *SynthOpts) defaults() {
	if o.Cycles == 0 {
		o.Cycles = 1_000_000
	}
	if o.Seed == 0 {
		o.Seed = 1995
	}
	if o.Networks == nil {
		o.Networks = StandardNetworks()
	}
	if o.Kinds == nil {
		o.Kinds = []NICKind{Plain, BuffersOnly, NIFDY}
	}
}

// topoIfaceDefaults returns the reliable-network interface options.
func topoIfaceDefaults() topo.IfaceOptions { return topo.IfaceOptions{} }

// synthRow runs one network across the NIC kinds and returns delivered
// packet counts in kind order.
func synthRow(spec NetSpec, kinds []NICKind, mkTraffic func() traffic.Config, cycles sim.Cycle, seed uint64, shards, window int) []int64 {
	out := make([]int64, len(kinds))
	tasks := make([]func(), len(kinds))
	for ki, kind := range kinds {
		ki, kind := ki, kind
		tasks[ki] = func() {
			tcfg := mkTraffic()
			s := Build(BuildOpts{Net: spec, Kind: kind, Seed: seed,
				EngineShards: shards, Window: window,
				Program: programFromTraffic(tcfg)})
			defer s.Close()
			s.Eng.Run(cycles)
			out[ki] = s.Accepted()
		}
	}
	runParallel(tasks)
	return out
}

// programFromTraffic adapts a traffic config into a program factory bound to
// a fresh generator per simulation.
func programFromTraffic(tcfg traffic.Config) func(n int) node.Program {
	var gen *traffic.Gen
	return func(n int) node.Program {
		if gen == nil {
			// The generator needs the sim's ID source only for uniqueness
			// within the sim; a private source is fine.
			gen = traffic.NewGen(tcfg, nil)
		}
		return gen.Program(n)
	}
}

// Figure2 reproduces "packets delivered in 1,000,000 cycles, heavy
// synthetic traffic" across networks and NIC kinds.
func Figure2(o SynthOpts) *stats.Table {
	o.defaults()
	t := stats.NewTable("Figure 2: heavy synthetic traffic — packets delivered in "+itoa64(int64(o.Cycles))+" cycles",
		"network", "none", "buffers", "NIFDY", "NIFDY/none", "NIFDY/buffers")
	fillSynth(t, o, func(n int) traffic.Config {
		c := traffic.Heavy(n, o.Seed)
		c.Phases = 1 << 20 // effectively unbounded: the cycle budget binds
		return c
	})
	return t
}

// Figure3 is the light-traffic companion (Figure 3).
func Figure3(o SynthOpts) *stats.Table {
	o.defaults()
	t := stats.NewTable("Figure 3: light synthetic traffic — packets delivered in "+itoa64(int64(o.Cycles))+" cycles",
		"network", "none", "buffers", "NIFDY", "NIFDY/none", "NIFDY/buffers")
	fillSynth(t, o, func(n int) traffic.Config {
		c := traffic.Light(n, o.Seed)
		c.Phases = 1 << 20
		return c
	})
	return t
}

func fillSynth(t *stats.Table, o SynthOpts, mk func(nodes int) traffic.Config) {
	type row struct {
		name string
		vals []int64
	}
	rows := make([]row, len(o.Networks))
	tasks := make([]func(), 0, len(o.Networks))
	for i, spec := range o.Networks {
		i, spec := i, spec
		tasks = append(tasks, func() {
			nodes := spec.Build(o.Seed, topoIfaceDefaults()).Nodes()
			vals := synthRow(spec, o.Kinds, func() traffic.Config { return mk(nodes) }, o.Cycles, o.Seed, o.Shards, o.Window)
			rows[i] = row{spec.Name, vals}
		})
	}
	runParallel(tasks)
	for _, r := range rows {
		cells := []any{r.name}
		for _, v := range r.vals {
			cells = append(cells, v)
		}
		cells = append(cells, ratio(r.vals[2], r.vals[0]), ratio(r.vals[2], r.vals[1]))
		t.Row(cells...)
	}
}

// Figure4 reproduces the scalability study: normalized throughput on full
// fat trees of increasing size for varying B (left graph) and O (right
// graph), short messages, no bulk dialogs.
type Figure4Opts struct {
	Cycles sim.Cycle // default 300,000
	Seed   uint64
	Levels []int // tree sizes as 4^level; default {2,3}
	Sweep  []int // parameter values; default {2,4,8,16}
	// Shards is the per-simulation engine shard count: 0 and 1 are the
	// serial engine. Bit-identical for any value.
	Shards int
}

func (o *Figure4Opts) defaults() {
	if o.Cycles == 0 {
		o.Cycles = 300_000
	}
	if o.Seed == 0 {
		o.Seed = 1995
	}
	if o.Levels == nil {
		o.Levels = []int{2, 3}
	}
	if o.Sweep == nil {
		o.Sweep = []int{2, 4, 8, 16}
	}
}

// Figure4 returns two tables: throughput normalized to the no-NIFDY
// baseline, varying B (O=8) and varying O (B=8). "Short messages and no
// bulk dialogs" (§4.2) means the heavy pattern's 1-5 packet bursts with the
// bulk protocol disabled: the bursts create receiver collisions, which is
// what the OPT absorbs and the pool interleaves around; the processors also
// run with reduced software overheads so the offered load can exceed the
// fabric's capacity at every machine size.
func Figure4(o Figure4Opts) (varyB, varyO *stats.Table) {
	o.defaults()
	fastCosts := node.Costs{Send: 10, Recv: 14, Poll: 6, ReorderPenalty: 4}
	mkTraffic := func(nodes int) traffic.Config {
		c := traffic.Heavy(nodes, o.Seed)
		c.Phases = 1 << 20
		c.BulkThreshold = 0 // no bulk dialogs
		return c
	}
	headers := []string{"nodes"}
	for _, v := range o.Sweep {
		headers = append(headers, "v="+itoa64(int64(v)))
	}
	varyB = stats.NewTable("Figure 4a: normalized throughput vs pool size B (O=8, full fat tree)", headers...)
	varyO = stats.NewTable("Figure 4b: normalized throughput vs OPT size O (B=8, full fat tree)", headers...)

	for _, lvl := range o.Levels {
		spec := FatTreeSized(lvl)
		nodes := 1 << (2 * uint(lvl)) // 4^lvl
		var base int64
		{
			tcfg := mkTraffic(nodes)
			s := Build(BuildOpts{Net: spec, Kind: Plain, Seed: o.Seed, Costs: fastCosts,
				EngineShards: o.Shards,
				Program:      programFromTraffic(tcfg)})
			s.Eng.Run(o.Cycles)
			base = s.Accepted()
			s.Close()
		}
		rowB := []any{nodes}
		rowO := []any{nodes}
		type res struct{ b, o int64 }
		results := make([]res, len(o.Sweep))
		tasks := []func(){}
		for vi, v := range o.Sweep {
			vi, v := vi, v
			tasks = append(tasks, func() {
				tb := mkTraffic(nodes)
				sb := Build(BuildOpts{Net: spec, Kind: NIFDY, Seed: o.Seed, Costs: fastCosts,
					Params:       core.Config{O: 8, B: v, D: -1, W: 2},
					EngineShards: o.Shards,
					Program:      programFromTraffic(tb)})
				sb.Eng.Run(o.Cycles)
				results[vi].b = sb.Accepted()
				sb.Close()
				to := mkTraffic(nodes)
				so := Build(BuildOpts{Net: spec, Kind: NIFDY, Seed: o.Seed, Costs: fastCosts,
					Params:       core.Config{O: v, B: 8, D: -1, W: 2},
					EngineShards: o.Shards,
					Program:      programFromTraffic(to)})
				so.Eng.Run(o.Cycles)
				results[vi].o = so.Accepted()
				so.Close()
			})
		}
		runParallel(tasks)
		for _, r := range results {
			rowB = append(rowB, ratio(r.b, base))
			rowO = append(rowO, ratio(r.o, base))
		}
		varyB.Row(rowB...)
		varyO.Row(rowO...)
	}
	return varyB, varyO
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func itoa64(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [24]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// --- C-shift (Figures 5 and 6) ---

// CShiftOpts parameterizes the C-shift experiments. The paper runs a
// 32-node CM-5-style network; 4-ary trees come in powers of 4, so the
// default is the 64-node (3-level) tree — documented in EXPERIMENTS.md.
type CShiftOpts struct {
	Levels     int // CM-5 tree levels; default 3 (64 nodes)
	BlockWords int // per-phase block; default 60
	Seed       uint64
	MaxCycles  sim.Cycle // safety bound; default 60,000,000
	Samples    sim.Cycle // Figure 5 sampling interval; default MaxCycles/roughly 10k samples... default 10,000
}

func (o *CShiftOpts) defaults() {
	if o.Levels == 0 {
		o.Levels = 3
	}
	if o.BlockWords == 0 {
		o.BlockWords = 60
	}
	if o.Seed == 0 {
		o.Seed = 1995
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 60_000_000
	}
	if o.Samples == 0 {
		o.Samples = 10_000
	}
}

// cshiftRun runs one C-shift configuration, returning completion cycles,
// total packets, total payload words moved, and the pending heatmap.
func cshiftRun(o CShiftOpts, kind NICKind, barriers, inOrder bool) (sim.Cycle, int, int, string) {
	spec := CM5Sized(o.Levels)
	nodes := 1 << (2 * uint(o.Levels))
	var app *cshift.App
	s := Build(BuildOpts{
		Net: spec, Kind: kind, Seed: o.Seed, PendingInterval: o.Samples,
		Program: func(n int) node.Program {
			if app == nil {
				app = cshift.New(cshift.Config{
					Nodes:      nodes,
					BlockWords: o.BlockWords,
					Barriers:   barriers,
					InOrder:    inOrder,
					Bulk:       kind == NIFDY,
				}, nil)
			}
			return app.Program(n)
		},
	})
	defer s.Close()
	ok, end := s.RunUntilDone(o.MaxCycles)
	if !ok {
		end = o.MaxCycles
	}
	payload := nodes * (nodes - 1) * o.BlockWords
	return end, app.TotalPackets(), payload, s.Pending.Heatmap()
}

// Figure5 reproduces the congestion heatmaps: pending packets per receiver
// over time, C-shift with no barriers, without and with NIFDY. The
// "without" side uses the buffers-only NIC (same total buffering as NIFDY)
// so the backlog is visible in the interfaces rather than hidden behind a
// blocked send call, matching the paper's network-resident packet counts.
func Figure5(o CShiftOpts) (without, with string) {
	o.defaults()
	var w1, w2 string
	runParallel([]func(){
		func() { _, _, _, w1 = cshiftRun(o, BuffersOnly, false, false) },
		func() { _, _, _, w2 = cshiftRun(o, NIFDY, false, true) },
	})
	return w1, w2
}

// Figure6 reproduces the C-shift throughput comparison. Throughput is
// reported in payload words per 1000 cycles: the in-order configuration
// moves the same data in fewer packets, so a packet-based rate would
// penalize exactly the effect being measured (§2.2).
func Figure6(o CShiftOpts) *stats.Table {
	o.defaults()
	t := stats.NewTable("Figure 6: C-shift on CM-5-style fat tree",
		"configuration", "cycles", "packets", "payload words", "words/1000cyc")
	type cfg struct {
		name            string
		kind            NICKind
		barriers, inOrd bool
	}
	cfgs := []cfg{
		{"none, no barriers", Plain, false, false},
		{"none, barriers", Plain, true, false},
		{"buffers, no barriers", BuffersOnly, false, false},
		{"NIFDY- (flow control only)", NIFDY, false, false},
		{"NIFDY (in-order exploited)", NIFDY, false, true},
	}
	type res struct {
		cyc   sim.Cycle
		pkts  int
		words int
	}
	results := make([]res, len(cfgs))
	tasks := []func(){}
	for i, c := range cfgs {
		i, c := i, c
		tasks = append(tasks, func() {
			cyc, pkts, words, _ := cshiftRun(o, c.kind, c.barriers, c.inOrd)
			results[i] = res{cyc, pkts, words}
		})
	}
	runParallel(tasks)
	for i, c := range cfgs {
		r := results[i]
		t.Row(c.name, r.cyc, r.pkts, r.words, 1000*float64(r.words)/float64(r.cyc))
	}
	return t
}

// --- EM3D (Figures 7 and 8) ---

// EM3DOpts parameterizes the EM3D experiments.
type EM3DOpts struct {
	Heavy     bool // Figure 8's parameters instead of Figure 7's
	Iters     int  // default 2
	Seed      uint64
	MaxCycles sim.Cycle // default 80,000,000
	Networks  []NetSpec
	// ScaleGraph divides the graph size for fast test/bench runs (>= 1).
	ScaleGraph int
}

func (o *EM3DOpts) defaults() {
	if o.Iters == 0 {
		o.Iters = 2
	}
	if o.Seed == 0 {
		o.Seed = 1995
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 80_000_000
	}
	if o.Networks == nil {
		o.Networks = StandardNetworks()
	}
	if o.ScaleGraph < 1 {
		o.ScaleGraph = 1
	}
}

// EM3D reproduces Figures 7/8: cycles per iteration for each network under
// each NIC configuration. NIFDY- uses the generic (out-of-order) message
// layer; NIFDY exploits in-order delivery. In-order fabrics use the
// in-order library for all configurations, as in the paper.
func EM3D(o EM3DOpts) *stats.Table {
	o.defaults()
	title := "Figure 7: EM3D cycles/iteration (light communication)"
	if o.Heavy {
		title = "Figure 8: EM3D cycles/iteration (heavy communication)"
	}
	t := stats.NewTable(title, "network", "none", "buffers", "NIFDY-", "NIFDY")
	type res [4]sim.Cycle
	results := make([]res, len(o.Networks))
	var tasks []func()
	for i, spec := range o.Networks {
		i, spec := i, spec
		run := func(kind NICKind, inOrder bool) sim.Cycle {
			nodes := spec.Build(o.Seed, topoIfaceDefaults()).Nodes()
			cfg := em3d.Light(nodes, o.Seed)
			if o.Heavy {
				cfg = em3d.Heavy(nodes, o.Seed)
			}
			cfg.NNodes /= o.ScaleGraph
			if cfg.NNodes < 4 {
				cfg.NNodes = 4
			}
			cfg.Iters = o.Iters
			cfg.InOrder = inOrder
			cfg.Bulk = kind == NIFDY
			var app *em3d.App
			s := Build(BuildOpts{Net: spec, Kind: kind, Seed: o.Seed,
				Program: func(n int) node.Program {
					if app == nil {
						app = em3d.New(cfg, nil)
					}
					return app.Program(n)
				}})
			defer s.Close()
			ok, end := s.RunUntilDone(o.MaxCycles)
			if !ok {
				end = o.MaxCycles
			}
			return end / sim.Cycle(o.Iters)
		}
		tasks = append(tasks,
			func() { results[i][0] = run(Plain, spec.InOrderFabric) },
			func() { results[i][1] = run(BuffersOnly, spec.InOrderFabric) },
			func() { results[i][2] = run(NIFDY, spec.InOrderFabric) }, // NIFDY-: generic library unless fabric is in-order anyway
			func() { results[i][3] = run(NIFDY, true) },
		)
	}
	runParallel(tasks)
	for i, spec := range o.Networks {
		r := results[i]
		t.Row(spec.Name, r[0], r[1], r[2], r[3])
	}
	return t
}

// --- Radix sort (Figure 9) ---

// RadixOpts parameterizes the radix-sort experiments.
type RadixOpts struct {
	Nodes     int       // default 64
	Buckets   int       // default 256 (8-bit radix)
	Delay     sim.Cycle // inter-send delay for the "with delay" variant; default 60
	Seed      uint64
	MaxCycles sim.Cycle // default 20,000,000
}

func (o *RadixOpts) defaults() {
	if o.Nodes == 0 {
		o.Nodes = 64
	}
	if o.Buckets == 0 {
		o.Buckets = 256
	}
	if o.Delay == 0 {
		o.Delay = 60
	}
	if o.Seed == 0 {
		o.Seed = 1995
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 20_000_000
	}
}

// Figure9 reproduces the scan-phase comparison across the three fat trees,
// with and without inter-send delays, with and without NIFDY.
func Figure9(o RadixOpts) *stats.Table {
	o.defaults()
	t := stats.NewTable("Figure 9: radix sort scan phase (cycles)",
		"network", "none/no delay", "none/delay", "NIFDY/no delay", "NIFDY/delay")
	specs := []NetSpec{FullFatTree(), CM5FatTree(), SFFatTree()}
	type res [4]sim.Cycle
	results := make([]res, len(specs))
	var tasks []func()
	for i, spec := range specs {
		i, spec := i, spec
		run := func(kind NICKind, delay sim.Cycle) sim.Cycle {
			cfg := radix.Config{Nodes: o.Nodes, Buckets: o.Buckets, Delay: delay, Seed: o.Seed}
			var app *radix.App
			s := Build(BuildOpts{Net: spec, Kind: kind, Seed: o.Seed,
				Program: func(n int) node.Program {
					if n >= o.Nodes {
						return nil // scan pipeline shorter than the fabric
					}
					if app == nil {
						app = radix.New(cfg, nil)
					}
					return app.ScanProgram(n)
				}})
			defer s.Close()
			ok, end := s.RunUntilDone(o.MaxCycles)
			if !ok {
				end = o.MaxCycles
			}
			return end
		}
		tasks = append(tasks,
			func() { results[i][0] = run(Plain, 0) },
			func() { results[i][1] = run(Plain, o.Delay) },
			func() { results[i][2] = run(NIFDY, 0) },
			func() { results[i][3] = run(NIFDY, o.Delay) },
		)
	}
	runParallel(tasks)
	for i, spec := range specs {
		r := results[i]
		t.Row(spec.Name, r[0], r[1], r[2], r[3])
	}
	return t
}

// RadixCoalesce measures the coalesce phase (paper: "virtually identical
// with and without NIFDY").
func RadixCoalesce(o RadixOpts) *stats.Table {
	o.defaults()
	t := stats.NewTable("Radix sort coalesce phase (cycles)", "network", "none", "NIFDY")
	spec := FullFatTree()
	run := func(kind NICKind) sim.Cycle {
		cfg := radix.Config{Nodes: o.Nodes, Buckets: o.Buckets, Seed: o.Seed}
		var app *radix.App
		s := Build(BuildOpts{Net: spec, Kind: kind, Seed: o.Seed,
			Program: func(n int) node.Program {
				if n >= o.Nodes {
					return nil
				}
				if app == nil {
					app = radix.New(cfg, nil)
				}
				return app.CoalesceProgram(n)
			}})
		defer s.Close()
		ok, end := s.RunUntilDone(o.MaxCycles)
		if !ok {
			end = o.MaxCycles
		}
		return end
	}
	var a, b sim.Cycle
	runParallel([]func(){func() { a = run(Plain) }, func() { b = run(NIFDY) }})
	t.Row(spec.Name, a, b)
	return t
}
