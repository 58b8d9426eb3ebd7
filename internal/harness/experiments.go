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

// runParallel executes independent tasks on up to NumCPU workers. Every
// experiment hands it its whole grid once, through runCells, one serial
// simulation per task: the cells fill the CPUs, so no simulation shards as
// well (two shards per cell measured 2 to 2.6 times slower on 2 CPUs).
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

// cell is one point of an experiment's grid: a simulation built from opts,
// run for budget cycles — or, when untilDone, until every program finishes
// with budget as the bound — then handed to read and closed.
type cell struct {
	opts      BuildOpts
	budget    sim.Cycle
	untilDone bool
	read      func(s *Sim)
}

// run builds, runs, reads and closes the cell's simulation.
func (c cell) run() {
	s := Build(c.opts)
	defer s.Close()
	if c.untilDone {
		s.RunUntilDone(c.budget)
	} else {
		s.Eng.Run(c.budget)
	}
	c.read(s)
}

// runCells runs one experiment's cells on one worker pool.
func runCells(cells []cell) {
	tasks := make([]func(), len(cells))
	for i := range cells {
		tasks[i] = cells[i].run
	}
	runParallel(tasks)
}

// accepted reads a cell's delivered packet count into v.
func accepted(v *int64) func(*Sim) {
	return func(s *Sim) { *v = s.Accepted() }
}

// endless returns the generator's programs with the phase count raised so
// that no program finishes inside a run: the cycle budget binds.
func endless(t traffic.Config) func(n int) node.Program {
	t.Phases = 1 << 20
	return traffic.NewGen(t, nil).Program
}

// fastCosts are reduced software overheads (the Figure 4 device): the
// offered load must exceed the fabric's capacity, or every NIC kind would tie
// at the processor's software send or receive rate.
var fastCosts = node.Costs{Send: 10, Recv: 14, Poll: 6, ReorderPenalty: 4}

// SynthOpts parameterizes the Figure 2/3 synthetic-traffic experiments.
type SynthOpts struct {
	// Cycles is the measurement budget; the paper uses 1,000,000.
	Cycles sim.Cycle
	// Seed drives all randomness.
	Seed uint64
	// Networks defaults to StandardNetworks.
	Networks []NetSpec
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
}

// paperKinds are the paper's three NIC configurations (§4.1), in column
// order: Figures 2 and 3 and the extension studies compare them.
var paperKinds = []NICKind{Plain, BuffersOnly, NIFDY}

// synthRow returns the cells of one network across the NIC kinds under
// endless traffic tcfg, each storing its delivered packet count in out, in
// kind order.
func synthRow(spec NetSpec, kinds []NICKind, tcfg traffic.Config, cycles sim.Cycle, seed uint64, out []int64) []cell {
	cells := make([]cell, len(kinds))
	for ki, kind := range kinds {
		cells[ki] = cell{
			opts:   BuildOpts{Net: spec, Kind: kind, Seed: seed, Program: endless(tcfg)},
			budget: cycles,
			read:   accepted(&out[ki]),
		}
	}
	return cells
}

// Figure2 reproduces "packets delivered in 1,000,000 cycles, heavy
// synthetic traffic" across networks and NIC kinds.
func Figure2(o SynthOpts) *stats.Table {
	o.defaults()
	t := stats.NewTable("Figure 2: heavy synthetic traffic — packets delivered in "+itoa64(int64(o.Cycles))+" cycles",
		"network", "none", "buffers", "NIFDY", "NIFDY/none", "NIFDY/buffers")
	fillSynth(t, o, traffic.Heavy)
	return t
}

// Figure3 is the light-traffic companion (Figure 3).
func Figure3(o SynthOpts) *stats.Table {
	o.defaults()
	t := stats.NewTable("Figure 3: light synthetic traffic — packets delivered in "+itoa64(int64(o.Cycles))+" cycles",
		"network", "none", "buffers", "NIFDY", "NIFDY/none", "NIFDY/buffers")
	fillSynth(t, o, traffic.Light)
	return t
}

func fillSynth(t *stats.Table, o SynthOpts, load func(nodes int, seed uint64) traffic.Config) {
	rows := make([][]int64, len(o.Networks))
	var cells []cell
	for i, spec := range o.Networks {
		rows[i] = make([]int64, len(paperKinds))
		nodes := spec.Build(o.Seed, topo.IfaceOptions{}).Nodes()
		cells = append(cells, synthRow(spec, paperKinds, load(nodes, o.Seed), o.Cycles, o.Seed, rows[i])...)
	}
	runCells(cells)
	for i, spec := range o.Networks {
		v := rows[i]
		t.Row(spec.Name, v[0], v[1], v[2], ratio(v[2], v[0]), ratio(v[2], v[1]))
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
	headers := []string{"nodes"}
	for _, v := range o.Sweep {
		headers = append(headers, "v="+itoa64(int64(v)))
	}
	varyB = stats.NewTable("Figure 4a: normalized throughput vs pool size B (O=8, full fat tree)", headers...)
	varyO = stats.NewTable("Figure 4b: normalized throughput vs OPT size O (B=8, full fat tree)", headers...)

	// Per tree size: the plain baseline, then each swept value as B and as O.
	type level struct {
		nodes int
		base  int64
		b, o  []int64
	}
	levels := make([]level, len(o.Levels))
	var cells []cell
	for li, lvl := range o.Levels {
		l := &levels[li]
		l.nodes = 1 << (2 * uint(lvl)) // 4^lvl
		l.b, l.o = make([]int64, len(o.Sweep)), make([]int64, len(o.Sweep))
		spec := FatTreeSized(lvl)
		add := func(kind NICKind, params core.Config, out *int64) {
			tcfg := traffic.Heavy(l.nodes, o.Seed)
			tcfg.BulkThreshold = 0 // no bulk dialogs
			cells = append(cells, cell{
				opts: BuildOpts{Net: spec, Kind: kind, Seed: o.Seed, Costs: fastCosts,
					Params: params, Program: endless(tcfg)},
				budget: o.Cycles,
				read:   accepted(out),
			})
		}
		add(Plain, core.Config{}, &l.base)
		for vi, v := range o.Sweep {
			add(NIFDY, core.Config{O: 8, B: v, D: -1, W: 2}, &l.b[vi])
			add(NIFDY, core.Config{O: v, B: 8, D: -1, W: 2}, &l.o[vi])
		}
	}
	runCells(cells)
	for _, l := range levels {
		rowB := []any{l.nodes}
		rowO := []any{l.nodes}
		for vi := range o.Sweep {
			rowB = append(rowB, ratio(l.b[vi], l.base))
			rowO = append(rowO, ratio(l.o[vi], l.base))
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
	Samples    sim.Cycle // Figure 5 sampling interval in cycles; default 10,000
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

// cshiftResult is one C-shift cell's outcome.
type cshiftResult struct {
	cycles  sim.Cycle // completion cycle, or the bound
	packets int       // packets sent
	words   int       // payload words moved
	heatmap string    // pending packets per receiver over time
}

// cshiftCell is one C-shift configuration, run to completion.
func cshiftCell(o CShiftOpts, kind NICKind, barriers, inOrder bool, r *cshiftResult) cell {
	nodes := 1 << (2 * uint(o.Levels))
	app := cshift.New(cshift.Config{
		Nodes:      nodes,
		BlockWords: o.BlockWords,
		Barriers:   barriers,
		InOrder:    inOrder,
		Bulk:       kind == NIFDY,
	}, nil)
	return cell{
		opts: BuildOpts{Net: CM5Sized(o.Levels), Kind: kind, Seed: o.Seed,
			PendingInterval: o.Samples, Program: app.Program},
		budget: o.MaxCycles, untilDone: true,
		read: func(s *Sim) {
			*r = cshiftResult{s.Eng.Now(), app.TotalPackets(), nodes * (nodes - 1) * o.BlockWords, s.Pending.Heatmap()}
		},
	}
}

// Figure5 reproduces the congestion heatmaps: pending packets per receiver
// over time, C-shift with no barriers, without and with NIFDY. The
// "without" side uses the buffers-only NIC (same total buffering as NIFDY)
// so the backlog is visible in the interfaces rather than hidden behind a
// blocked send call, matching the paper's network-resident packet counts.
func Figure5(o CShiftOpts) (without, with string) {
	o.defaults()
	var w1, w2 cshiftResult
	runCells([]cell{
		cshiftCell(o, BuffersOnly, false, false, &w1),
		cshiftCell(o, NIFDY, false, true, &w2),
	})
	return w1.heatmap, w2.heatmap
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
	results := make([]cshiftResult, len(cfgs))
	cells := make([]cell, len(cfgs))
	for i, c := range cfgs {
		cells[i] = cshiftCell(o, c.kind, c.barriers, c.inOrd, &results[i])
	}
	runCells(cells)
	for i, c := range cfgs {
		r := results[i]
		t.Row(c.name, r.cycles, r.packets, r.words, 1000*float64(r.words)/float64(r.cycles))
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
	results := make([][4]sim.Cycle, len(o.Networks))
	var cells []cell
	for i, spec := range o.Networks {
		nodes := spec.Build(o.Seed, topo.IfaceOptions{}).Nodes()
		add := func(kind NICKind, inOrder bool, out *sim.Cycle) {
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
			cells = append(cells, cell{
				opts:   BuildOpts{Net: spec, Kind: kind, Seed: o.Seed, Program: em3d.New(cfg, nil).Program},
				budget: o.MaxCycles, untilDone: true,
				read: func(s *Sim) { *out = s.Eng.Now() / sim.Cycle(o.Iters) },
			})
		}
		r := &results[i]
		add(Plain, spec.InOrderFabric, &r[0])
		add(BuffersOnly, spec.InOrderFabric, &r[1])
		add(NIFDY, spec.InOrderFabric, &r[2]) // NIFDY-: generic library unless fabric is in-order anyway
		add(NIFDY, true, &r[3])
	}
	runCells(cells)
	for i, spec := range o.Networks {
		r := results[i]
		t.Row(spec.Name, r[0], r[1], r[2], r[3])
	}
	return t
}

// --- Radix sort (Figure 9) ---

// RadixOpts parameterizes the radix-sort experiments.
type RadixOpts struct {
	Nodes     int // default 64
	Buckets   int // default 256 (8-bit radix)
	Seed      uint64
	MaxCycles sim.Cycle // default 20,000,000
}

// radixDelay is the inter-send delay of Figure 9's "with delay" variant.
const radixDelay sim.Cycle = 60

func (o *RadixOpts) defaults() {
	if o.Nodes == 0 {
		o.Nodes = 64
	}
	if o.Buckets == 0 {
		o.Buckets = 256
	}
	if o.Seed == 0 {
		o.Seed = 1995
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 20_000_000
	}
}

// radixCell runs one radix phase to completion: prog on the first o.Nodes
// nodes, none on the rest of the fabric.
func radixCell(o RadixOpts, spec NetSpec, kind NICKind, prog func(int) node.Program, end *sim.Cycle) cell {
	return cell{
		opts: BuildOpts{Net: spec, Kind: kind, Seed: o.Seed,
			Program: func(n int) node.Program {
				if n >= o.Nodes {
					return nil // pipeline shorter than the fabric
				}
				return prog(n)
			}},
		budget: o.MaxCycles, untilDone: true,
		read: func(s *Sim) { *end = s.Eng.Now() },
	}
}

// Figure9 reproduces the scan-phase comparison across the three fat trees,
// with and without inter-send delays, with and without NIFDY.
func Figure9(o RadixOpts) *stats.Table {
	o.defaults()
	t := stats.NewTable("Figure 9: radix sort scan phase (cycles)",
		"network", "none/no delay", "none/delay", "NIFDY/no delay", "NIFDY/delay")
	specs := []NetSpec{FullFatTree(), CM5FatTree(), SFFatTree()}
	variants := []struct {
		kind  NICKind
		delay sim.Cycle
	}{{Plain, 0}, {Plain, radixDelay}, {NIFDY, 0}, {NIFDY, radixDelay}}
	results := make([][4]sim.Cycle, len(specs))
	var cells []cell
	for i, spec := range specs {
		for j, v := range variants {
			app := radix.New(radix.Config{Nodes: o.Nodes, Buckets: o.Buckets, Delay: v.delay, Seed: o.Seed}, nil)
			cells = append(cells, radixCell(o, spec, v.kind, app.ScanProgram, &results[i][j]))
		}
	}
	runCells(cells)
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
	var ends [2]sim.Cycle
	cells := make([]cell, 2)
	for i, kind := range []NICKind{Plain, NIFDY} {
		app := radix.New(radix.Config{Nodes: o.Nodes, Buckets: o.Buckets, Seed: o.Seed}, nil)
		cells[i] = radixCell(o, spec, kind, app.CoalesceProgram, &ends[i])
	}
	runCells(cells)
	t.Row(spec.Name, ends[0], ends[1])
	return t
}
