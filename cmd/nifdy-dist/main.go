// Command nifdy-dist runs one simulation split across worker processes.
//
// The launcher forks N copies of itself (each re-executed copy detects the
// worker sentinel in its argv and joins the cluster protocol instead of
// parsing flags), hands each a contiguous partition of the engine shards,
// and drives all of them through the same chunk schedule over a staged
// socket transport with conservative time-window synchronization. The
// printed state trace is byte-identical for any {shards x procs} split of
// the same spec, including 1x1; see DESIGN.md section 9.
//
// Usage:
//
//	nifdy-dist -net mesh2d -procs 4                  # 4 workers, 4 shards
//	nifdy-dist -net torus2d -shards 8 -procs 2       # 4 shards per worker
//	nifdy-dist -net fattree -kind plain -window 8    # wider sync window
//
// Networks: mesh2d, torus2d, mesh3d, fattree, sffattree, cm5, butterfly,
// multibutterfly. Kinds: plain, buffers, nifdy.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"nifdy"
)

func main() {
	// A re-executed worker copy must join the cluster before flag parsing.
	if nifdy.DistWorkerMain() {
		return
	}
	var (
		net     = flag.String("net", "mesh2d", "fabric (mesh2d,torus2d,mesh3d,fattree,sffattree,cm5,butterfly,multibutterfly)")
		kind    = flag.String("kind", "nifdy", "NIC under test (plain,buffers,nifdy)")
		procs   = flag.Int("procs", 2, "worker processes to fork")
		shards  = flag.Int("shards", 0, "total engine shards, split evenly over the workers (0 = one per worker)")
		window  = flag.Int("window", 4, "conservative sync window in cycles (a model parameter: results depend on it, the process split does not)")
		cycles  = flag.Int64("cycles", 20_000, "simulated cycles to run")
		chunk   = flag.Int64("chunk", 1000, "cycles per trace line")
		seed    = flag.Uint64("seed", 1995, "workload seed")
		pattern = flag.String("pattern", "heavy", "traffic pattern (heavy,light)")
		pending = flag.Int64("pending", 0, "pending-packet sample interval in cycles (0 = off)")
		quiet   = flag.Bool("quiet", false, "suppress the trace; print only the summary line")
	)
	flag.Parse()

	k := 0
	switch *kind {
	case "plain":
		k = int(nifdy.KindPlain)
	case "buffers":
		k = int(nifdy.KindBuffersOnly)
	case "nifdy":
		k = int(nifdy.KindNIFDY)
	default:
		fmt.Fprintf(os.Stderr, "unknown kind %q (plain, buffers, nifdy)\n", *kind)
		os.Exit(2)
	}
	if *procs < 1 {
		fmt.Fprintln(os.Stderr, "-procs must be at least 1")
		os.Exit(2)
	}
	n := *shards
	if n == 0 {
		n = *procs
	}

	spec := nifdy.DistSpec{
		Net: *net, Kind: k, Shards: n, Window: *window, Seed: *seed,
		PendingInterval: *pending, Pattern: *pattern, Phases: 1 << 20,
	}
	start := time.Now()
	trace, err := nifdy.DistTrace(spec, *procs, *cycles, *chunk)
	wall := time.Since(start)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nifdy-dist: %v\n", err)
		os.Exit(1)
	}
	if !*quiet {
		fmt.Print(trace)
	}
	fmt.Printf("[%s/%s: %d shards over %d processes, W=%d, %d cycles in %v]\n",
		*net, *kind, n, *procs, *window, *cycles, wall.Round(time.Millisecond))
}
