// Command bench is the simulator's benchmark: six workloads, four end-to-end
// metrics measured with tracing off, and per-layer metrics from a separate
// traced run and from isolated layer rigs. BENCHMARK.json at the root of the
// repository names the workloads, the metrics and their bounds; README.md in
// this directory says why each was chosen and how to run them.
//
//	bench -workload flit_heavy -seed 1995 -seconds 10 -trace 0
//	bench -all -out a.json
//	bench -compare a.json b.json
//
// One process runs one workload once. Its last line of output is the result
// as one JSON object; it exits with code 1 if a check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// result is the last line a run prints.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// record is the result file of one run: the result, what produced it and
// where.
type record struct {
	Workload string           `json:"workload"`
	Seed     uint64           `json:"seed"`
	Seconds  float64          `json:"seconds"`
	Trace    bool             `json:"trace"`
	Host     host             `json:"host"`
	Frozen   map[string]int64 `json:"frozen_cycles"`
	Skipped  string           `json:"skipped,omitempty"`
	Accepted int64            `json:"exact_window_accepted"`
	Walls    []time.Duration  `json:"chunk_wall_ns"`
	result
}

// frozen returns the workload's frozen cycle counts.
func frozen(name string) (map[string]int64, bool) {
	if name == fabricIncast {
		return map[string]int64{"warm": int64(fabricWarm), "cell": int64(fabricCycles), "exact_rounds": fabricRounds}, true
	}
	w, ok := find(name)
	if !ok {
		return nil, false
	}
	return map[string]int64{"warm": int64(w.warm), "chunk": int64(w.chunk), "exact": int64(w.exact)}, true
}

// measure runs one workload once.
func measure(name string, o options) (*run, error) {
	r := newRun()
	if name == fabricIncast {
		r.fabric(o)
	} else {
		w, ok := find(name)
		if !ok {
			return nil, fmt.Errorf("no workload %q", name)
		}
		if o.trace {
			r.traced(w, o)
		} else {
			r.stepped(w, o)
		}
	}
	if o.trace {
		if err := runRigs(o.seed, o.rigs, r.m); err != nil {
			r.fail("%v", err)
		}
	}
	return r, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run once")
		seed    = flag.Uint64("seed", 1995, "seed the workload's inputs are made from")
		seconds = flag.Float64("seconds", 10, "how long the run measures")
		trace   = flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics, 0 the end-to-end metrics")
		outdir  = flag.String("outdir", "bench/out", "directory the result file and the trace are written to")
		all     = flag.Bool("all", false, "run every workload, traced and untraced, each in its own process")
		runs    = flag.Int("runs", 1, "with -all: runs of each workload")
		out     = flag.String("out", "", "with -all: file the set of results is written to")
		compare = flag.Bool("compare", false, "compare the two result sets named as arguments against -spec")
		spec    = flag.String("spec", "BENCHMARK.json", "benchmark definition")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result sets"))
		}
		ok, err := compareSets(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *all:
		if *out == "" {
			fatal(fmt.Errorf("-all needs -out"))
		}
		if err := runAll(*spec, *out, *seed, *seconds, *runs); err != nil {
			fatal(err)
		}
	default:
		os.Exit(single(*name, *outdir, options{seed: *seed, seconds: *seconds, trace: *trace != 0, rigs: fullRigs}))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// single runs one workload, writes its result file and trace, prints the
// result, and returns the exit code.
func single(name, outdir string, o options) int {
	fz, ok := frozen(name)
	if !ok {
		fatal(fmt.Errorf("no workload %q", name))
	}
	rec := record{Workload: name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Host: fingerprint(), Frozen: fz}
	file := filepath.Join(outdir, name+".json")
	if o.trace {
		file = filepath.Join(outdir, name+".traced.json")
	}
	if name == "flit_heavy_sharded" && runtime.NumCPU() < 2 {
		// Two shards on one CPU measure the scheduler, not the engine.
		rec.Skipped = "1cpu"
		if err := writeJSON(file, rec); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "bench: flit_heavy_sharded skipped: 1cpu")
		return 3
	}
	r, err := measure(name, o)
	if err != nil {
		fatal(err)
	}
	rec.Accepted, rec.Walls = r.accepted, r.walls
	rec.result = result{Correct: r.failed == 0, Attempted: r.attempted, Failed: min(r.failed, r.attempted), Metrics: r.m}
	if err := writeJSON(file, rec); err != nil {
		fatal(err)
	}
	if o.trace {
		if err := r.tr.write(outdir, name); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rec.Correct {
		return 1
	}
	return 0
}
