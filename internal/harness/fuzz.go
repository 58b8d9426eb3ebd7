package harness

import (
	"fmt"

	"nifdy/internal/check"
	"nifdy/internal/core"
	"nifdy/internal/nic"
	"nifdy/internal/node"
	"nifdy/internal/rng"
	"nifdy/internal/sim"
	"nifdy/internal/traffic"
)

// FuzzOpts parameterizes the cross-configuration fuzz sweep: randomized
// (topology, NIC kind, parameter corner, traffic, seed) tuples run to
// completion with every invariant monitor armed, at several engine shard
// counts, diffing the sharded runs against the serial reference.
type FuzzOpts struct {
	// Trials is the number of random configurations; default 8.
	Trials int
	// Seed derives every trial's configuration and traffic.
	Seed uint64
	// Shards are the engine shard counts per trial; default {1, 2, 4}. The
	// first entry is the reference for the stats diff.
	Shards []int
	// Procs are the multi-process worker counts per trial; default {2}. Each
	// runs the trial's configuration over the dist transport (the shard count
	// is a randomized multiple of the worker count) and must reproduce the
	// reference stats bit for bit, with monitors armed in every worker. Set
	// to an empty non-nil slice to skip the multi-process column.
	Procs []int
	// MaxCycles bounds each run; default 600,000.
	MaxCycles sim.Cycle
	// Packets is the per-node, per-phase quota; default 20 (two phases).
	Packets int
	// Interval is the monitor sweep cadence in cycles; default 16.
	Interval sim.Cycle
}

func (o *FuzzOpts) defaults() {
	if o.Trials == 0 {
		o.Trials = 8
	}
	if o.Seed == 0 {
		o.Seed = 1995
	}
	if o.Shards == nil {
		o.Shards = []int{1, 2, 4}
	}
	if o.Procs == nil {
		o.Procs = []int{2}
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 600_000
	}
	if o.Packets == 0 {
		o.Packets = 20
	}
	if o.Interval == 0 {
		o.Interval = 16
	}
}

// FuzzFailure is one invariant violation or cross-shard divergence.
type FuzzFailure struct {
	Trial  string
	Shards int
	Detail string
}

func (f FuzzFailure) String() string {
	return fmt.Sprintf("%s [shards=%d]: %s", f.Trial, f.Shards, f.Detail)
}

// FuzzResult summarizes one sweep.
type FuzzResult struct {
	// Runs is the number of simulations executed (trials x shard counts).
	Runs int
	// Failures is empty when every run was clean.
	Failures []FuzzFailure
}

// fuzzTrial is one randomized configuration.
type fuzzTrial struct {
	spec   NetSpec
	kind   NICKind
	param  core.Config
	light  bool
	seed   uint64
	window int // conservative-sync window (a model parameter, fixed per trial)
	dmul   int // multi-process shard count = procs * dmul
	// fabric selects a modern-fabric column: "" (classic matrix), "lossy"
	// (NIFDY with retransmission over dropping wires), "pfc", or "dcqcn".
	fabric string
}

func (tr fuzzTrial) String() string {
	pattern := "heavy"
	if tr.light {
		pattern = "light"
	}
	s := fmt.Sprintf("%s/%v O=%d B=%d D=%d W=%d ackArr=%v %s win=%d seed=%d",
		tr.spec.Name, tr.kind, tr.param.O, tr.param.B, tr.param.D, tr.param.W,
		tr.param.AckOnArrival, pattern, tr.window, tr.seed)
	if tr.fabric != "" {
		s += " fabric=" + tr.fabric
	}
	return s
}

// fuzzFabricFor returns trial i's modern-fabric column. The rotation is
// fixed, not randomized, so every default-size sweep deterministically
// covers lossy wires, PFC, and DCQCN alongside the classic matrix.
func fuzzFabricFor(i int) string {
	switch i % 8 {
	case 1:
		return "lossy"
	case 3:
		return "pfc"
	case 5:
		return "dcqcn"
	}
	return ""
}

// distNetNames maps NetSpec display names to the wire-stable fabric names the
// distributed runner accepts (distNets).
var distNetNames = map[string]string{
	"mesh 8x8":             "mesh2d",
	"torus 8x8":            "torus2d",
	"mesh 4x4x4":           "mesh3d",
	"fat tree (full)":      "fattree",
	"fat tree (store&fwd)": "sffattree",
	"fat tree (CM-5)":      "cm5",
	"butterfly":            "butterfly",
	"multibutterfly":       "multibutterfly",
}

// FuzzSweep runs the randomized cross-configuration sweep. Every run arms
// the full monitor suite (internal/check); runs that complete also get the
// end-to-end loss check. For each trial, the aggregate NIC stats of every
// shard count must equal the first (serial) run bit for bit.
func FuzzSweep(o FuzzOpts) FuzzResult {
	o.defaults()
	r := rng.NewStream(o.Seed, 0xF0220)
	oCorners := []int{1, 2, 4, 8}
	bCorners := []int{1, 2, 4, 8}
	dCorners := []int{-1, 1, 2}
	wCorners := []int{2, 4, 8}
	kinds := []NICKind{Plain, BuffersOnly, NIFDY}
	nets := StandardNetworks()
	trials := make([]fuzzTrial, o.Trials)
	for i := range trials {
		tr := fuzzTrial{
			spec: nets[r.Intn(len(nets))],
			kind: kinds[r.Intn(len(kinds))],
			param: core.Config{
				O: oCorners[r.Intn(len(oCorners))],
				B: bCorners[r.Intn(len(bCorners))],
				D: dCorners[r.Intn(len(dCorners))],
				W: wCorners[r.Intn(len(wCorners))],
				// The ack-strategy ablation rides along for free.
				AckOnArrival: r.Bool(0.5),
			},
			light:  r.Bool(0.5),
			seed:   r.Uint64()%(1<<30) + 1,
			window: 1 + 3*r.Intn(2), // 1 or 4
			dmul:   1 + r.Intn(2),
		}
		// A draw nothing reads: dropping it would shift every later draw, and
		// so replace every trial of every seed's sweep with a different one.
		r.Bool(0.5)
		if fab := fuzzFabricFor(i); fab != "" {
			// The modern-fabric columns run on the wormhole meshes, where
			// PFC pause frames ride the credit wires and the DESIGN.md §11
			// scenario pack lives. Lossy wires force the NIFDY kind: the
			// sweep requires completion, and only the §6 retransmission
			// path recovers a dropped flit.
			tr.fabric = fab
			wormhole := []NetSpec{Mesh2D(), Torus2D(), Mesh3D()}
			tr.spec = wormhole[r.Intn(len(wormhole))]
			switch fab {
			case "lossy":
				tr.kind = NIFDY
				tr.param.Retransmit = true
				// The timeout must undercut the drain-tail quiet period,
				// or a loss on the workload's last packets outlives the
				// receiving processor.
				tr.param.RetransmitTimeout = 1024
			case "pfc":
				tr.kind = PFC
			case "dcqcn":
				tr.kind = DCQCN
			}
		}
		trials[i] = tr
	}

	// Columns: every in-process shard count, then every multi-process worker
	// count. Column 0 (the first shard count, usually serial) is the
	// reference every other column must match bit for bit.
	cols := len(o.Shards) + len(o.Procs)
	type trialOut struct {
		stats []nic.Stats
		done  []bool
		fails [][]FuzzFailure
		skip  []bool
	}
	outs := make([]trialOut, len(trials))
	tasks := make([]func(), 0, len(trials)*cols)
	for ti, tr := range trials {
		ti, tr := ti, tr
		outs[ti] = trialOut{
			stats: make([]nic.Stats, cols),
			done:  make([]bool, cols),
			fails: make([][]FuzzFailure, cols),
			skip:  make([]bool, cols),
		}
		for si, shards := range o.Shards {
			si, shards := si, shards
			tasks = append(tasks, func() {
				st, done, fails := fuzzRun(tr, shards, o)
				outs[ti].stats[si] = st
				outs[ti].done[si] = done
				outs[ti].fails[si] = fails
			})
		}
		for pi, procs := range o.Procs {
			ci, procs := len(o.Shards)+pi, procs
			if tr.fabric != "" {
				// The dist codec carries no PFC frames, ECN bits, or wire
				// faults across process boundaries, so the modern-fabric
				// trials run only the in-process shard columns.
				outs[ti].skip[ci] = true
				continue
			}
			tasks = append(tasks, func() {
				st, done, fails := fuzzDistRun(tr, procs, o)
				outs[ti].stats[ci] = st
				outs[ti].done[ci] = done
				outs[ti].fails[ci] = fails
			})
		}
	}
	runParallel(tasks)

	res := FuzzResult{Runs: len(tasks)}
	for ti, tr := range trials {
		out := &outs[ti]
		for _, fs := range out.fails {
			res.Failures = append(res.Failures, fs...)
		}
		for si := 1; si < cols; si++ {
			if out.skip[si] {
				continue
			}
			column := "shards"
			n := 0
			if si < len(o.Shards) {
				n = o.Shards[si]
			} else {
				column = "procs"
				n = o.Procs[si-len(o.Shards)]
			}
			if out.done[si] != out.done[0] || out.stats[si] != out.stats[0] {
				res.Failures = append(res.Failures, FuzzFailure{
					Trial: tr.String(), Shards: n,
					Detail: fmt.Sprintf("%s=%d diverges from shards=%d: done %v vs %v, stats %+v vs %+v",
						column, n, o.Shards[0], out.done[si], out.done[0], out.stats[si], out.stats[0]),
				})
			}
		}
	}
	return res
}

// fuzzDistRun executes one (trial, worker count) simulation over the dist
// transport: the launcher re-execs this binary procs times (the embedding
// main must gate on DistWorkerMain), each worker arms its own monitor suite,
// and the merged stats must match the in-process reference.
func fuzzDistRun(tr fuzzTrial, procs int, o FuzzOpts) (nic.Stats, bool, []FuzzFailure) {
	shards := procs * tr.dmul
	pattern := "heavy"
	if tr.light {
		pattern = "light"
	}
	spec := DistSpec{
		Net:    distNetNames[tr.spec.Name],
		Kind:   int(tr.kind),
		Shards: shards,
		Window: tr.window,
		Seed:   tr.seed,
		O:      tr.param.O, B: tr.param.B, D: tr.param.D, W: tr.param.W,
		AckOnArrival:    tr.param.AckOnArrival,
		Pattern:         pattern,
		Phases:          2,
		PacketsPerPhase: o.Packets,
		ZeroIgnore:      true,
		DrainTail:       2500,
		Check:           true,
		CheckInterval:   int64(o.Interval),
	}
	if spec.Net == "" {
		panic(fmt.Sprintf("harness: fuzz fabric %q has no distributed-runner name", tr.spec.Name))
	}
	st, done, workerFails, err := DistRunToDone(spec, procs, o.MaxCycles)
	var fails []FuzzFailure
	if err != nil {
		fails = append(fails, FuzzFailure{
			Trial: tr.String(), Shards: shards, Detail: fmt.Sprintf("procs=%d: %v", procs, err),
		})
		return st, done, fails
	}
	for _, f := range workerFails {
		if len(fails) < 16 {
			fails = append(fails, FuzzFailure{Trial: tr.String(), Shards: shards, Detail: f})
		}
	}
	if !done {
		fails = append(fails, FuzzFailure{
			Trial: tr.String(), Shards: shards,
			Detail: fmt.Sprintf("procs=%d did not complete within %d cycles", procs, o.MaxCycles),
		})
	}
	return st, done, fails
}

// drainTail extends a program with a fixed receive-and-retire window so
// packets still in flight when the workload proper ends are accepted before
// the end-to-end loss check.
func drainTail(prog node.Program, tail sim.Cycle) node.Program {
	return func(p *node.Proc) {
		prog(p)
		deadline := p.Now() + tail
		for {
			pk, ok := p.RecvOr(func() bool { return p.Now() >= deadline })
			if !ok {
				return
			}
			p.Free(pk)
		}
	}
}

// drainQuiet is drainTail with the deadline restarting on every arrival:
// the node leaves only after a full quiet period. Loss-recovery tails need
// this — a retransmission chain arrives in bursts spaced by the retransmit
// timeout, which a fixed window would cut off.
func drainQuiet(prog node.Program, quiet sim.Cycle) node.Program {
	return func(p *node.Proc) {
		prog(p)
		deadline := p.Now() + quiet
		for {
			pk, ok := p.RecvOr(func() bool { return p.Now() >= deadline })
			if !ok {
				return
			}
			deadline = p.Now() + quiet
			p.Free(pk)
		}
	}
}

// fuzzRun executes one (trial, shard count) simulation with monitors armed.
func fuzzRun(tr fuzzTrial, shards int, o FuzzOpts) (nic.Stats, bool, []FuzzFailure) {
	var fails []FuzzFailure
	tcfg := traffic.Heavy(64, tr.seed)
	if tr.light {
		tcfg = traffic.Light(64, tr.seed)
		// Skip the non-responsive periods: the point here is protocol-state
		// coverage per cycle, not idle time.
		tcfg.IgnoreProb = 0
	}
	tcfg.Phases = 2
	tcfg.PacketsPerPhase = o.Packets
	progs := programFromTraffic(tcfg)
	bo := BuildOpts{
		Net: tr.spec, Kind: tr.kind, Seed: tr.seed, Params: tr.param,
		EngineShards: shards, Window: tr.window,
		Program: func(n int) node.Program {
			if tr.fabric == "lossy" {
				return drainQuiet(progs(n), 2500)
			}
			return drainTail(progs(n), 2500)
		},
		Check: &check.Options{
			Interval: o.Interval, Sequence: true, InOrder: true,
			OnViolation: func(v check.Violation) {
				if len(fails) < 16 {
					fails = append(fails, FuzzFailure{
						Trial: tr.String(), Shards: shards, Detail: v.String(),
					})
				}
			},
		},
	}
	if tr.fabric == "lossy" {
		// Dropping access wires: the run still must complete, and the
		// ID-keyed sequence accounting (Build switches it on for
		// NIFDY+Retransmit) still must balance — every loss recovered,
		// every duplicate suppressed.
		bo.Fabric.WireDrop = 1.0 / 256
		bo.Fabric.Seed = tr.seed
	}
	s := Build(bo)
	defer s.Close()
	ok, _ := s.RunUntilDone(o.MaxCycles)
	if ok {
		// A short settle window lets trailing acks land, then the checker
		// reports any packet sent but never accepted. Run (not Step) so the
		// settle follows the same window schedule as the dist workers.
		s.Eng.Run(500)
		s.Checker.Finish(s.Eng.Now())
	} else {
		fails = append(fails, FuzzFailure{
			Trial: tr.String(), Shards: shards,
			Detail: fmt.Sprintf("did not complete within %d cycles", o.MaxCycles),
		})
	}
	return s.AggregateStats(), ok, fails
}
