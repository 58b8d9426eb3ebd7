// Command nifdy-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	nifdy-bench -exp all                 # everything, reduced scale
//	nifdy-bench -exp f2 -full            # Figure 2 at paper scale (1M cycles)
//	nifdy-bench -exp t3sweep -net mesh   # parameter sweep for one network
//	nifdy-bench -exp f2 -cpuprofile cpu.prof   # profile an experiment's hot path
//	nifdy-bench -exp f2 -memprofile mem.prof   # heap snapshot after it finishes
//	nifdy-bench -exp f2 -shards 4        # 4 engine shards per simulation (bit-identical)
//	nifdy-bench -exp f2 -mode flow       # Figure 2 on the flow-level twins of each fabric
//	nifdy-bench -exp fabric              # NIFDY vs PFC/DCQCN/plain under incast, lossless + lossy wires
//	nifdy-bench -check                   # invariant-monitor fuzz sweep; exit 1 on violation
//
// The experiment ids are the experiments table below; -h prints them.
// Each run ends with a "[id took ...]" wall-clock line. Speed, memory and
// multi-process wall clock are measured by bench/ (bash bench/run.sh) and
// nifdy-dist, not here.
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
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"nifdy"
)

// config is what the flags select; each experiment reads what it needs.
type config struct {
	full           bool
	seed           uint64
	shards, window int
	net            string          // -net, for t3sweep
	nets           []nifdy.NetSpec // the figure networks at -mode's fidelity
}

// experiments is the one list of -exp ids: dispatch, the -exp all set, the
// flag's help string and the unknown-id message all read it, in this order.
var experiments = []struct {
	id    string
	inAll bool // run by -exp all
	run   func(c config)
}{
	{"t2", true, func(c config) { fmt.Println(nifdy.Table2()) }},
	{"t3", true, func(c config) { fmt.Println(nifdy.Table3(c.seed)) }},
	{"t3sweep", false, func(c config) {
		spec, ok := netByName(c.net)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown network %q\n", c.net)
			os.Exit(2)
		}
		o := nifdy.SweepOpts{Seed: c.seed}
		if c.full {
			o.Cycles = 1_000_000
		}
		fmt.Printf("== Parameter sweep: %s (best first) ==\n", spec.Name)
		for i, r := range nifdy.Table3Sweep(spec, o) {
			if i >= 10 {
				break
			}
			fmt.Printf("O=%-2d B=%-2d W=%-2d  delivered=%d\n", r.Params.O, r.Params.B, r.Params.W, r.Delivered)
		}
	}},
	{"model", true, func(c config) { fmt.Println(nifdy.ModelCheck(nifdy.ModelCheckOpts{Seed: c.seed})) }},
	{"f2", true, func(c config) { synthFigure(nifdy.Figure2, c) }},
	{"f3", true, func(c config) { synthFigure(nifdy.Figure3, c) }},
	{"f4", true, func(c config) {
		o := nifdy.Figure4Opts{Seed: c.seed, Shards: c.shards}
		if c.full {
			o.Cycles = 1_000_000
			o.Levels = []int{2, 3, 4}
		}
		b, oo := nifdy.Figure4(o)
		fmt.Println(b)
		fmt.Println(oo)
	}},
	{"f5", true, func(c config) {
		without, with := nifdy.Figure5(cshiftOpts(c))
		fmt.Println("== Figure 5: pending packets per receiver (C-shift, no barriers) ==")
		fmt.Println("-- without NIFDY --")
		fmt.Print(without)
		fmt.Println("-- with NIFDY --")
		fmt.Print(with)
	}},
	{"f6", true, func(c config) {
		tbl := nifdy.Figure6(cshiftOpts(c))
		fmt.Println(tbl)
		fmt.Println(tbl.Chart("words/1000cyc", 0, 4))
	}},
	{"f7", true, func(c config) { fmt.Println(nifdy.EM3D(em3dOpts(c, false))) }},
	{"f8", true, func(c config) { fmt.Println(nifdy.EM3D(em3dOpts(c, true))) }},
	{"f9", true, func(c config) { fmt.Println(nifdy.Figure9(radixOpts(c))) }},
	{"coalesce", true, func(c config) { fmt.Println(nifdy.RadixCoalesce(radixOpts(c))) }},
	{"lossy", true, func(c config) {
		o := nifdy.LossyOpts{Seed: c.seed}
		if !c.full {
			o.Messages = 10
		}
		fmt.Println(nifdy.ExtLossy(o))
	}},
	{"acks", true, func(c config) { fmt.Println(nifdy.ExtAckStrategies(ackOpts(c))) }},
	{"piggyback", true, func(c config) { fmt.Println(nifdy.ExtPiggyback(ackOpts(c))) }},
	{"adaptive", true, func(c config) { fmt.Println(nifdy.ExtAdaptiveMesh(ackOpts(c))) }},
	{"hotspot", true, func(c config) { fmt.Println(nifdy.ExtHotspot(ackOpts(c))) }},
	{"faults", true, func(c config) { fmt.Println(nifdy.ExtFaults(ackOpts(c))) }},
	{"fabric", false, func(c config) {
		// Modern-fabric scenario pack (DESIGN.md §11). Reduced scale is
		// the 9x9/48-way testbed whose shapes match the 17x17/256-way
		// default (-full); every metric is bit-identical for any -shards.
		o := nifdy.FabricOpts{Seed: c.seed, Shards: c.shards}
		if !c.full {
			o.Width, o.Height = 9, 9
			o.FanIn = 48
			o.Cycles = 40_000
		}
		fmt.Println(nifdy.FabricTable(nifdy.FabricExperiment(o)))
	}},
}

// expIDs lists the table's ids in order, for the help and error messages.
func expIDs() string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return strings.Join(ids, ",")
}

func main() {
	// The fuzz sweep's multi-process column (-check) re-executes this binary
	// as distributed workers; a worker invocation must join the cluster
	// protocol before any flag parsing.
	if nifdy.DistWorkerMain() {
		return
	}
	var (
		exp     = flag.String("exp", "all", "experiment ids, comma-separated ("+expIDs()+"), or all")
		full    = flag.Bool("full", false, "paper-scale budgets instead of reduced")
		seed    = flag.Uint64("seed", 1995, "experiment seed")
		shards  = flag.Int("shards", 0, "engine shards per simulation for f2/f3/f4 and fabric (0 or 1 = serial, N = N shards; bit-identical results)")
		net     = flag.String("net", "mesh", "network for -exp t3sweep (mesh,torus,fattree,sf,cm5,butterfly,multibutterfly,mesh3d)")
		mode    = flag.String("mode", "flit", "fabric fidelity for f2/f3 (flit,flow,hybrid)")
		window  = flag.Int("window", 0, "conservative sync window W in cycles for f2/f3 (0 = default 1; W is a model parameter — delivered counts depend on it)")
		chk     = flag.Bool("check", false, "run the invariant-monitor fuzz sweep instead of experiments (exit 1 on any violation; -full scales it up)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memProf = flag.String("memprofile", "", "write a heap profile taken after the selected experiments to this file")
	)
	flag.Parse()

	modeNets, ok := modeNetworks(*mode)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown mode %q (flit, flow, hybrid)\n", *mode)
		os.Exit(2)
	}

	// Resolve every id before running any: a typo at the end of a list
	// should not cost the experiments before it.
	var sel []int
	for _, id := range strings.Split(*exp, ",") {
		id = strings.TrimSpace(id)
		found := false
		for i, e := range experiments {
			if id == e.id || (id == "all" && e.inAll) {
				sel = append(sel, i)
				found = true
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (have %s, all)\n", id, expIDs())
			os.Exit(2)
		}
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

	c := config{full: *full, seed: *seed, shards: *shards, window: *window, net: *net, nets: modeNets}
	for _, i := range sel {
		start := time.Now()
		experiments[i].run(c)
		fmt.Printf("[%s took %v]\n\n", experiments[i].id, time.Since(start).Round(time.Millisecond))
	}
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

// synthFigure runs Figure 2 or 3 on -mode's networks and prints the table
// and its chart.
func synthFigure(fig func(nifdy.SynthOpts) *nifdy.Table, c config) {
	o := nifdy.SynthOpts{Seed: c.seed, Shards: c.shards, Window: c.window, Networks: c.nets}
	if !c.full {
		o.Cycles = 150_000
	}
	tbl := fig(o)
	fmt.Println(tbl)
	fmt.Println(tbl.Chart("pkts", 0, 1, 2, 3))
}

func cshiftOpts(c config) nifdy.CShiftOpts {
	o := nifdy.CShiftOpts{Seed: c.seed}
	if !c.full {
		o.Levels = 2
		o.BlockWords = 60
		o.MaxCycles = 10_000_000
		o.Samples = 400
	}
	return o
}

func em3dOpts(c config, heavy bool) nifdy.EM3DOpts {
	o := nifdy.EM3DOpts{Seed: c.seed, Heavy: heavy}
	if !c.full {
		o.ScaleGraph = 10
		o.Iters = 1
		o.Networks = []nifdy.NetSpec{nifdy.FullFatTree(), nifdy.CM5FatTree(), nifdy.Mesh2D(), nifdy.Butterfly()}
	}
	return o
}

func radixOpts(c config) nifdy.RadixOpts {
	o := nifdy.RadixOpts{Seed: c.seed}
	if !c.full {
		o.Nodes = 16
		o.Buckets = 128
	}
	return o
}

func ackOpts(c config) nifdy.AckOpts {
	o := nifdy.AckOpts{Seed: c.seed}
	if c.full {
		o.Cycles = 1_000_000
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
