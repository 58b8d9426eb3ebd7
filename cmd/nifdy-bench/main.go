// Command nifdy-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	nifdy-bench -exp all                 # everything, reduced scale
//	nifdy-bench -exp f2 -full            # Figure 2 at paper scale (1M cycles)
//	nifdy-bench -exp t3sweep -net mesh   # parameter sweep for one network
//	nifdy-bench -json BENCH_$(date +%F).json   # also record a perf baseline
//	nifdy-bench -exp f2 -cpuprofile cpu.prof   # profile an experiment's hot path
//	nifdy-bench -exp f2 -memprofile mem.prof   # heap snapshot after it finishes
//	nifdy-bench -exp f2 -shards 4        # 4 engine shards per simulation (bit-identical)
//	nifdy-bench -exp f2 -mode flow       # Figure 2 on the flow-level twins of each fabric
//	nifdy-bench -exp scale               # node-cycles/sec: flit baseline vs 100k-node flow run
//	nifdy-bench -exp dist -procs 1,2,4   # multi-process engine: bit-identity + wall clock per proc count
//	nifdy-bench -exp fabric              # NIFDY vs PFC/DCQCN/plain under incast, lossless + lossy wires
//	nifdy-bench -check                   # invariant-monitor fuzz sweep; exit 1 on violation
//
// Experiments: t2, t3, t3sweep, model, f2, f3, f4, f5, f6, f7, f8, f9,
// coalesce, lossy, acks, piggyback, adaptive, hotspot, faults, scale, dist,
// fabric, all.
//
// -mode selects the fabric fidelity for f2/f3: "flit" (default) is the
// cycle-accurate reference, "flow" swaps each network for its flow-level
// twin (same protocol layer, bandwidth-sharing fabric), and "hybrid" embeds
// the flit fabric as the hot region of a 128-node flow bulk.
//
// Reduced scale (the default) keeps every experiment under roughly a minute
// on a laptop; -full uses the paper's budgets (Figure 2/3: 1,000,000 cycles;
// full graphs and block sizes elsewhere). Shapes — who wins and by roughly
// what factor — are the target, not absolute numbers (see EXPERIMENTS.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"nifdy"
	"nifdy/internal/stats"
)

// expRecord is one experiment's entry in the -json baseline file: how long
// it took and the tables it reported, so future changes can be compared
// against both the timing and the numbers.
type expRecord struct {
	Name    string            `json:"name"`
	Mode    string            `json:"mode,omitempty"`
	Nodes   int               `json:"nodes,omitempty"`
	NsPerOp int64             `json:"ns_per_op"`
	Metrics []json.RawMessage `json:"metrics,omitempty"`
}

// benchFile is the top-level shape of the -json output. NumCPU and
// GOMAXPROCS qualify every timing in the file: a speedup claim from a
// sharded or multi-process run is only meaningful relative to the
// parallelism the host actually had.
type benchFile struct {
	Date        string      `json:"date"`
	GoVersion   string      `json:"go_version"`
	GOARCH      string      `json:"goarch"`
	Seed        uint64      `json:"seed"`
	Full        bool        `json:"full"`
	Shards      int         `json:"shards"`
	Window      int         `json:"window,omitempty"`
	GOMAXPROCS  int         `json:"gomaxprocs"`
	NumCPU      int         `json:"numcpu"`
	Experiments []expRecord `json:"experiments"`
}

func main() {
	// The dist experiment (and the fuzz sweep's multi-process column)
	// re-executes this binary as distributed workers; a worker invocation
	// must join the cluster protocol before any flag parsing.
	if nifdy.DistWorkerMain() {
		return
	}
	var (
		exp     = flag.String("exp", "all", "experiment id (t2,t3,t3sweep,f2,f3,f4,f5,f6,f7,f8,f9,coalesce,lossy,acks,piggyback,scale,dist,fabric,all)")
		full    = flag.Bool("full", false, "paper-scale budgets instead of reduced")
		seed    = flag.Uint64("seed", 1995, "experiment seed")
		shards  = flag.Int("shards", 0, "engine shards per simulation for f2/f3/f4, fabric and scale (0 or 1 = serial, N = N shards; bit-identical results)")
		net     = flag.String("net", "mesh", "network for -exp t3sweep (mesh,torus,fattree,sf,cm5,butterfly,multibutterfly,mesh3d)")
		mode    = flag.String("mode", "flit", "fabric fidelity for f2/f3 (flit,flow,hybrid)")
		procs   = flag.String("procs", "", "worker process counts for -exp dist, comma-separated (default 1,2 and 4 when the host has >=4 CPUs)")
		window  = flag.Int("window", 0, "conservative sync window W in cycles for f2/f3 and -exp dist (0 = default: 1 for figures, 4 for dist; W is a model parameter — delivered counts depend on it)")
		chk     = flag.Bool("check", false, "run the invariant-monitor fuzz sweep instead of experiments (exit 1 on any violation; -full scales it up)")
		jsonOut = flag.String("json", "", "also write ns/op and reported metrics per experiment to this file (e.g. BENCH_2006-01-02.json)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memProf = flag.String("memprofile", "", "write a heap profile taken after the selected experiments to this file")
	)
	flag.Parse()

	modeNets, ok := modeNetworks(*mode)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown mode %q (flit, flow, hybrid)\n", *mode)
		os.Exit(2)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cannot write %s: %v\n", *cpuProf, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "start cpu profile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cannot write %s: %v\n", *memProf, err)
			os.Exit(1)
		}
		defer func() {
			runtime.GC() // settle to live objects before snapshotting the heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "write heap profile: %v\n", err)
			}
			f.Close()
		}()
	}

	if *jsonOut != "" {
		// Fail on an unwritable path now, not after an hour of experiments.
		f, err := os.OpenFile(*jsonOut, os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cannot write %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		f.Close()
	}

	if *chk {
		o := nifdy.FuzzOpts{Seed: *seed}
		if *full {
			o.Trials = 48
			o.Packets = 60
		}
		start := time.Now()
		res := nifdy.FuzzSweep(o)
		for _, f := range res.Failures {
			fmt.Fprintf(os.Stderr, "FAIL %s\n", f)
		}
		fmt.Printf("invariant sweep: %d runs, %d failures in %v\n",
			res.Runs, len(res.Failures), time.Since(start).Round(time.Millisecond))
		if len(res.Failures) > 0 {
			os.Exit(1)
		}
		return
	}

	var records []expRecord

	run := func(id string) {
		// Table-producing cases register their tables here; after the switch
		// they become the experiment's metrics in the -json baseline.
		var tables []*stats.Table
		collect := func(ts ...*stats.Table) {
			tables = append(tables, ts...)
		}
		var extra []json.RawMessage
		recMode := ""
		recorded := false
		start := time.Now()
		switch id {
		case "t2":
			tbl := nifdy.Table2()
			fmt.Println(tbl)
			collect(tbl)
		case "t3":
			tbl := nifdy.Table3(*seed)
			fmt.Println(tbl)
			collect(tbl)
		case "t3sweep":
			spec, ok := netByName(*net)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown network %q\n", *net)
				os.Exit(2)
			}
			o := nifdy.SweepOpts{Seed: *seed}
			if *full {
				o.Cycles = 1_000_000
			}
			res := nifdy.Table3Sweep(spec, o)
			fmt.Printf("== Parameter sweep: %s (best first) ==\n", spec.Name)
			for i, r := range res {
				if i >= 10 {
					break
				}
				fmt.Printf("O=%-2d B=%-2d W=%-2d  delivered=%d\n", r.Params.O, r.Params.B, r.Params.W, r.Delivered)
			}
			if raw, err := json.Marshal(res); err == nil {
				extra = append(extra, raw)
			}
		case "f2":
			o := synthOpts(*full, *seed, *shards, *window)
			o.Networks = modeNets
			recMode = *mode
			tbl := nifdy.Figure2(o)
			fmt.Println(tbl)
			fmt.Println(tbl.Chart("pkts", 0, 1, 2, 3))
			collect(tbl)
		case "f3":
			o := synthOpts(*full, *seed, *shards, *window)
			o.Networks = modeNets
			recMode = *mode
			tbl := nifdy.Figure3(o)
			fmt.Println(tbl)
			fmt.Println(tbl.Chart("pkts", 0, 1, 2, 3))
			collect(tbl)
		case "f4":
			o := nifdy.Figure4Opts{Seed: *seed, Shards: *shards}
			if *full {
				o.Cycles = 1_000_000
				o.Levels = []int{2, 3, 4}
			}
			b, oo := nifdy.Figure4(o)
			fmt.Println(b)
			fmt.Println(oo)
			collect(b, oo)
		case "f5":
			o := cshiftOpts(*full, *seed)
			without, with := nifdy.Figure5(o)
			fmt.Println("== Figure 5: pending packets per receiver (C-shift, no barriers) ==")
			fmt.Println("-- without NIFDY --")
			fmt.Print(without)
			fmt.Println("-- with NIFDY --")
			fmt.Print(with)
		case "f6":
			tbl := nifdy.Figure6(cshiftOpts(*full, *seed))
			fmt.Println(tbl)
			fmt.Println(tbl.Chart("words/1000cyc", 0, 4))
			collect(tbl)
		case "f7":
			tbl := nifdy.EM3D(em3dOpts(*full, *seed, false))
			fmt.Println(tbl)
			collect(tbl)
		case "f8":
			tbl := nifdy.EM3D(em3dOpts(*full, *seed, true))
			fmt.Println(tbl)
			collect(tbl)
		case "f9":
			o := nifdy.RadixOpts{Seed: *seed}
			if !*full {
				o.Nodes = 16
				o.Buckets = 128
			}
			tbl := nifdy.Figure9(o)
			fmt.Println(tbl)
			collect(tbl)
		case "coalesce":
			o := nifdy.RadixOpts{Seed: *seed}
			if !*full {
				o.Nodes = 16
				o.Buckets = 128
			}
			tbl := nifdy.RadixCoalesce(o)
			fmt.Println(tbl)
			collect(tbl)
		case "lossy":
			o := nifdy.LossyOpts{Seed: *seed}
			if !*full {
				o.Messages = 10
			}
			tbl := nifdy.ExtLossy(o)
			fmt.Println(tbl)
			collect(tbl)
		case "acks":
			o := nifdy.AckOpts{Seed: *seed}
			if *full {
				o.Cycles = 1_000_000
			}
			tbl := nifdy.ExtAckStrategies(o)
			fmt.Println(tbl)
			collect(tbl)
		case "piggyback":
			o := nifdy.AckOpts{Seed: *seed}
			if *full {
				o.Cycles = 1_000_000
			}
			tbl := nifdy.ExtPiggyback(o)
			fmt.Println(tbl)
			collect(tbl)
		case "adaptive":
			o := nifdy.AckOpts{Seed: *seed}
			if *full {
				o.Cycles = 1_000_000
			}
			tbl := nifdy.ExtAdaptiveMesh(o)
			fmt.Println(tbl)
			collect(tbl)
		case "hotspot":
			o := nifdy.AckOpts{Seed: *seed}
			if *full {
				o.Cycles = 1_000_000
			}
			tbl := nifdy.ExtHotspot(o)
			fmt.Println(tbl)
			collect(tbl)
		case "faults":
			o := nifdy.AckOpts{Seed: *seed}
			if *full {
				o.Cycles = 1_000_000
			}
			tbl := nifdy.ExtFaults(o)
			fmt.Println(tbl)
			collect(tbl)
		case "fabric":
			// Modern-fabric scenario pack (DESIGN.md §11). Reduced scale is
			// the 9x9/48-way testbed whose shapes match the 17x17/256-way
			// default (-full); every metric is bit-identical for any -shards.
			// The per-cell metrics land in the baseline JSON with the
			// fabric/loss/nic_kind fields scripts/benchfabric.sh gates on.
			o := nifdy.FabricOpts{Seed: *seed, Shards: *shards}
			if !*full {
				o.Width, o.Height = 9, 9
				o.FanIn = 48
				o.Cycles = 40_000
			}
			pts := nifdy.FabricExperiment(o)
			tbl := nifdy.FabricTable(pts)
			fmt.Println(tbl)
			collect(tbl)
			if raw, err := json.Marshal(pts); err == nil {
				extra = append(extra, raw)
			}
		case "model":
			tbl := nifdy.ModelCheck(nifdy.ModelCheckOpts{Seed: *seed})
			fmt.Println(tbl)
			collect(tbl)
		case "scale":
			// Simulation throughput across fidelities: the cycle-accurate
			// 64-node baseline, its hybrid embedding in a 4096-node flow
			// bulk, and the pure flow engine at 102,400 nodes. One record
			// per row so the mode and node count are first-class in the
			// baseline file.
			cycles := sim20k(*full)
			tbl := stats.NewTable("Scale: simulated node-cycles per wall second",
				"fabric", "mode", "nodes", "cycles", "delivered", "node-cyc/s")
			for _, cfg := range []struct {
				mode string
				spec nifdy.NetSpec
			}{
				{"flit", nifdy.Mesh2D()},
				{"hybrid", nifdy.HybridTwin(nifdy.Mesh2D(), 4096)},
				{"flow", nifdy.FlowMeshSized(320, 320)},
			} {
				res := nifdy.ScaleBench(cfg.spec, nifdy.ScaleOpts{
					Cycles: cycles, Seed: *seed, Shards: *shards,
				})
				tbl.Row(res.Name, cfg.mode, res.Nodes, res.Cycles,
					res.Delivered, res.NodeCyclesPerSec)
				if *jsonOut != "" {
					raw, err := json.Marshal(res)
					if err != nil {
						fmt.Fprintf(os.Stderr, "marshal scale/%s: %v\n", cfg.mode, err)
						continue
					}
					records = append(records, expRecord{
						Name: id, Mode: cfg.mode, Nodes: res.Nodes,
						NsPerOp: res.WallNS, Metrics: []json.RawMessage{raw},
					})
				}
			}
			fmt.Println(tbl)
			recorded = true
		case "dist":
			// Multi-process engine: the same mesh workload run over 1, 2,
			// and (on >=4-CPU hosts) 4 worker processes connected by the
			// staged socket transport, one engine shard per worker so
			// the proc count is the parallelism. Every run's full
			// golden trace must be byte-identical to the single-process run
			// — the state trace is split-invariant, so the rows may differ
			// only in wall clock. One record per proc count so speedup is
			// first-class in the baseline file.
			counts := distProcCounts(*procs)
			cycles := int64(60_000)
			if *full {
				cycles = 400_000
			}
			w := *window
			if w == 0 {
				w = 4
			}
			spec := nifdy.DistSpec{
				Net: "mesh2d", Kind: int(nifdy.KindNIFDY),
				Window: w, Seed: *seed, PendingInterval: 1000,
				Pattern: "heavy", Phases: 1 << 20,
			}
			tbl := stats.NewTable("Distributed engine: wall clock by worker processes",
				"procs", "shards", "window", "cycles", "wall", "speedup")
			ref := ""
			var refNS int64
			for _, p := range counts {
				spec.Shards = p
				start := time.Now()
				trace, err := nifdy.DistTrace(spec, p, cycles, 1000)
				wall := time.Since(start)
				if err != nil {
					fmt.Fprintf(os.Stderr, "dist procs=%d: %v\n", p, err)
					os.Exit(1)
				}
				if ref == "" {
					ref, refNS = trace, wall.Nanoseconds()
				} else if trace != ref {
					fmt.Fprintf(os.Stderr, "dist procs=%d diverges from procs=%d\n", p, counts[0])
					os.Exit(1)
				}
				speedup := float64(refNS) / float64(wall.Nanoseconds())
				tbl.Row(p, spec.Shards, w, cycles,
					wall.Round(time.Millisecond).String(),
					fmt.Sprintf("%.2fx", speedup))
				if *jsonOut != "" {
					raw, err := json.Marshal(struct {
						Procs   int     `json:"procs"`
						Shards  int     `json:"shards"`
						Window  int     `json:"window"`
						Cycles  int64   `json:"cycles"`
						WallNS  int64   `json:"wall_ns"`
						Speedup float64 `json:"speedup"`
					}{p, spec.Shards, w, cycles, wall.Nanoseconds(), speedup})
					if err != nil {
						fmt.Fprintf(os.Stderr, "marshal dist/procs=%d: %v\n", p, err)
						continue
					}
					records = append(records, expRecord{
						Name: id, Mode: fmt.Sprintf("procs=%d", p),
						NsPerOp: wall.Nanoseconds(), Metrics: []json.RawMessage{raw},
					})
				}
			}
			fmt.Println(tbl)
			fmt.Printf("dist: all %d proc counts byte-identical over %d cycles\n", len(counts), cycles)
			recorded = true
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", id)
			os.Exit(2)
		}
		elapsed := time.Since(start)
		fmt.Printf("[%s took %v]\n\n", id, elapsed.Round(time.Millisecond))
		if *jsonOut == "" || recorded {
			return
		}
		rec := expRecord{Name: id, Mode: recMode, NsPerOp: elapsed.Nanoseconds(), Metrics: extra}
		for _, t := range tables {
			raw, err := t.JSON()
			if err != nil {
				fmt.Fprintf(os.Stderr, "marshal %s metrics: %v\n", id, err)
				continue
			}
			rec.Metrics = append(rec.Metrics, raw)
		}
		records = append(records, rec)
	}

	if *exp == "all" {
		for _, id := range []string{"t2", "t3", "model", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9", "coalesce", "lossy", "acks", "piggyback", "adaptive", "hotspot", "faults"} {
			run(id)
		}
	} else {
		for _, id := range strings.Split(*exp, ",") {
			run(strings.TrimSpace(id))
		}
	}

	if *jsonOut != "" {
		out := benchFile{
			Date:        time.Now().UTC().Format("2006-01-02"),
			GoVersion:   runtime.Version(),
			GOARCH:      runtime.GOARCH,
			Seed:        *seed,
			Full:        *full,
			Shards:      *shards,
			Window:      *window,
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			NumCPU:      runtime.NumCPU(),
			Experiments: records,
		}
		buf, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "marshal baseline: %v\n", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonOut, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Printf("wrote baseline to %s (%d experiments)\n", *jsonOut, len(records))
	}
}

// distProcCounts parses -procs, defaulting to {1, 2} plus 4 on hosts with
// at least 4 CPUs (a 4-worker run on fewer cores only measures contention).
func distProcCounts(s string) []int {
	if s == "" {
		out := []int{1, 2}
		if runtime.NumCPU() >= 4 {
			out = append(out, 4)
		}
		return out
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 {
			fmt.Fprintf(os.Stderr, "bad -procs entry %q\n", f)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

// sim20k is the scale experiment's cycle budget: 20k reduced, 100k full.
func sim20k(full bool) int64 {
	if full {
		return 100_000
	}
	return 20_000
}

// modeNetworks maps -mode to the figure networks at that fidelity.
func modeNetworks(mode string) ([]nifdy.NetSpec, bool) {
	base := nifdy.StandardNetworks()
	switch mode {
	case "", "flit":
		return base, true
	case "flow":
		out := make([]nifdy.NetSpec, len(base))
		for i, s := range base {
			out[i] = nifdy.FlowTwin(s)
		}
		return out, true
	case "hybrid":
		out := make([]nifdy.NetSpec, len(base))
		for i, s := range base {
			out[i] = nifdy.HybridTwin(s, 128)
		}
		return out, true
	}
	return nil, false
}

func synthOpts(full bool, seed uint64, shards, window int) nifdy.SynthOpts {
	o := nifdy.SynthOpts{Seed: seed, Shards: shards, Window: window}
	if !full {
		o.Cycles = 150_000
	}
	return o
}

func cshiftOpts(full bool, seed uint64) nifdy.CShiftOpts {
	o := nifdy.CShiftOpts{Seed: seed}
	if !full {
		o.Levels = 2
		o.BlockWords = 60
		o.MaxCycles = 10_000_000
		o.Samples = 400
	}
	return o
}

func em3dOpts(full bool, seed uint64, heavy bool) nifdy.EM3DOpts {
	o := nifdy.EM3DOpts{Seed: seed, Heavy: heavy}
	if !full {
		o.ScaleGraph = 10
		o.Iters = 1
		o.Networks = []nifdy.NetSpec{nifdy.FullFatTree(), nifdy.CM5FatTree(), nifdy.Mesh2D(), nifdy.Butterfly()}
	}
	return o
}

func netByName(name string) (nifdy.NetSpec, bool) {
	switch name {
	case "mesh":
		return nifdy.Mesh2D(), true
	case "mesh3d":
		return nifdy.Mesh3D(), true
	case "torus":
		return nifdy.Torus2D(), true
	case "fattree":
		return nifdy.FullFatTree(), true
	case "sf":
		return nifdy.SFFatTree(), true
	case "cm5":
		return nifdy.CM5FatTree(), true
	case "butterfly":
		return nifdy.Butterfly(), true
	case "multibutterfly":
		return nifdy.Multibutterfly(), true
	}
	return nifdy.NetSpec{}, false
}
