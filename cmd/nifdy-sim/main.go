// Command nifdy-sim runs one simulation configuration and prints its
// statistics — the quickest way to poke at a network/NIC combination.
//
// Usage:
//
//	nifdy-sim -net mesh -nic nifdy -traffic heavy -cycles 200000
//	nifdy-sim -net cm5 -nic buffers -traffic light -O 4 -B 8 -W 2
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"nifdy"
	"nifdy/internal/core"
	"nifdy/internal/harness"
	"nifdy/internal/traffic"
)

func main() {
	var (
		netName = flag.String("net", "mesh", "network (mesh,mesh3d,torus,fattree,sf,cm5,butterfly,multibutterfly)")
		nicName = flag.String("nic", "nifdy", "NIC (none,buffers,nifdy)")
		load    = flag.String("traffic", "heavy", "traffic pattern (heavy,light)")
		cycles  = flag.Int64("cycles", 200_000, "cycles to simulate")
		seed    = flag.Uint64("seed", 1995, "seed")
		oParam  = flag.Int("O", 0, "OPT size (0 = network default)")
		bParam  = flag.Int("B", 0, "pool size")
		dParam  = flag.Int("D", 0, "bulk dialogs per receiver (-1 disables)")
		wParam  = flag.Int("W", 0, "bulk window")
		drop    = flag.Float64("drop", 0, "packet drop probability (enables retransmission)")
		asJSON  = flag.Bool("json", false, "emit machine-readable JSON instead of text")
	)
	flag.Parse()

	spec, ok := netSpec(*netName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown network %q\n", *netName)
		os.Exit(2)
	}
	var kind nifdy.Kind
	switch *nicName {
	case "none":
		kind = nifdy.KindPlain
	case "buffers":
		kind = nifdy.KindBuffersOnly
	case "nifdy":
		kind = nifdy.KindNIFDY
	default:
		fmt.Fprintf(os.Stderr, "unknown NIC %q\n", *nicName)
		os.Exit(2)
	}

	params := spec.Params
	if *oParam != 0 {
		params.O = *oParam
	}
	if *bParam != 0 {
		params.B = *bParam
	}
	if *dParam != 0 {
		params.D = *dParam
	}
	if *wParam != 0 {
		params.W = *wParam
	}
	if *drop > 0 {
		params.Retransmit = true
	}

	net := spec.Build(*seed, nifdy.IfaceOptions{})
	var tcfg traffic.Config
	switch *load {
	case "heavy":
		tcfg = traffic.Heavy(net.Nodes(), *seed)
	case "light":
		tcfg = traffic.Light(net.Nodes(), *seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown traffic %q\n", *load)
		os.Exit(2)
	}
	tcfg.Phases = 1 << 20

	gen := traffic.NewGen(tcfg, nil)
	sys := nifdy.New(nifdy.Options{
		Net: spec, Kind: kind, Seed: *seed, Drop: *drop, Params: params,
		Program: func(n int) nifdy.Program { return gen.Program(n) },
	})
	defer sys.Close()
	// One thread per engine shard (one: this engine is serial). Every
	// processor handoff readies a goroutine, and readying one while another P
	// idles wakes that P to look for work it never finds: at GOMAXPROCS 2 the
	// default run takes 3.5 s against 2.6 s at 1.
	runtime.GOMAXPROCS(sys.Eng.Shards())
	sys.Eng.Run(*cycles)

	agg0 := sys.AggregateStats()
	if *asJSON {
		out, err := json.Marshal(map[string]any{
			"network": spec.Name,
			"nic":     kind.String(),
			"params":  map[string]int{"O": params.O, "B": params.B, "D": params.D, "W": params.W},
			"traffic": *load,
			"cycles":  *cycles,
			"seed":    *seed,
			"stats":   agg0,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(string(out))
		return
	}
	c := net.Chars() // characteristics of an identical fabric
	fmt.Printf("network : %s (%s)\n", spec.Name, c)
	fmt.Printf("nic     : %s", kind)
	if kind == nifdy.KindNIFDY {
		fmt.Printf(" (O=%d B=%d D=%d W=%d)", params.O, params.B, params.D, params.W)
	}
	fmt.Println()
	fmt.Printf("traffic : %s, %d cycles, seed %d\n", *load, *cycles, *seed)
	agg := sys.AggregateStats()
	fmt.Printf("sent=%d injected=%d delivered=%d acksSent=%d bulkPkts=%d grants=%d rejects=%d retx=%d dups=%d\n",
		agg.Sent, agg.Injected, agg.Accepted, agg.AcksSent, agg.BulkPackets,
		agg.BulkGrants, agg.BulkRejects, agg.Retransmits, agg.Duplicates)
	fmt.Printf("throughput: %.2f packets/1000 cycles\n", 1000*float64(agg.Accepted)/float64(*cycles))
}

func netSpec(name string) (harness.NetSpec, bool) {
	switch name {
	case "mesh":
		return harness.Mesh2D(), true
	case "mesh3d":
		return harness.Mesh3D(), true
	case "torus":
		return harness.Torus2D(), true
	case "fattree":
		return harness.FullFatTree(), true
	case "sf":
		return harness.SFFatTree(), true
	case "cm5":
		return harness.CM5FatTree(), true
	case "butterfly":
		return harness.Butterfly(), true
	case "multibutterfly":
		return harness.Multibutterfly(), true
	}
	return harness.NetSpec{}, false
}

var _ = core.Config{} // keep explicit dependency for documentation
