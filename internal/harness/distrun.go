package harness

import (
	"encoding/json"
	"fmt"
	"strings"

	"nifdy/internal/check"
	"nifdy/internal/core"
	"nifdy/internal/dist"
	"nifdy/internal/nic"
	"nifdy/internal/node"
	"nifdy/internal/sim"
	"nifdy/internal/traffic"
)

// distNets are the fabrics the distributed runner supports, by wire-stable
// name: the flit-accurate networks whose channels carry the staged
// cross-shard protocol. The flow-level fabric (internal/flownet) models
// bandwidth shares, not flit events, and is deliberately absent.
var distNets = map[string]func() NetSpec{
	"mesh2d":         Mesh2D,
	"torus2d":        Torus2D,
	"mesh3d":         Mesh3D,
	"fattree":        FullFatTree,
	"sffattree":      SFFatTree,
	"cm5":            CM5FatTree,
	"butterfly":      Butterfly,
	"multibutterfly": Multibutterfly,
}

// DistSpec is the launcher->worker simulation description: every field a
// worker needs to rebuild the identical simulation, as wire-stable scalars
// (the full BuildOpts carries closures and cannot cross a process boundary).
type DistSpec struct {
	// Net names a distNets fabric.
	Net string
	// Kind is the NIC kind (int form of NICKind).
	Kind int
	// Shards is the total engine shard count, split evenly over the workers.
	Shards int
	// Window is the conservative synchronization window W.
	Window int
	// Seed drives fabric adaptivity and traffic.
	Seed uint64
	// PendingInterval enables pending-per-receiver sampling.
	PendingInterval int64

	// O, B, D, W, AckOnArrival select the NIFDY parameter corner (all-zero
	// uses the fabric's tuned parameters).
	O, B, D, W   int
	AckOnArrival bool

	// Pattern is "heavy" or "light"; Phases and PacketsPerPhase override the
	// pattern's defaults when nonzero. ZeroIgnore clears light traffic's
	// non-responsive periods (the fuzz sweep's setting).
	Pattern         string
	Phases          int
	PacketsPerPhase int
	ZeroIgnore      bool
	// DrainTail, when positive, extends every program with a
	// receive-and-retire window (fuzz mode).
	DrainTail int64

	// Check arms the invariant monitors at the given sweep cadence.
	Check         bool
	CheckInterval int64
}

// buildOpts translates the spec into BuildOpts for worker w. Violations from
// the monitors (if armed) append to *fails.
func (sp *DistSpec) buildOpts(w *dist.Worker, fails *[]string) BuildOpts {
	mk, ok := distNets[sp.Net]
	if !ok {
		panic(fmt.Sprintf("harness: fabric %q is not supported by the distributed runner", sp.Net))
	}
	tcfg := traffic.Heavy(64, sp.Seed)
	if sp.Pattern == "light" {
		tcfg = traffic.Light(64, sp.Seed)
		if sp.ZeroIgnore {
			tcfg.IgnoreProb = 0
		}
	}
	if sp.Phases != 0 {
		tcfg.Phases = sp.Phases
	}
	if sp.PacketsPerPhase != 0 {
		tcfg.PacketsPerPhase = sp.PacketsPerPhase
	}
	progs := programFromTraffic(tcfg)
	program := progs
	if sp.DrainTail > 0 {
		program = func(n int) node.Program {
			return drainTail(progs(n), sim.Cycle(sp.DrainTail))
		}
	}
	opts := BuildOpts{
		Net:             mk(),
		Kind:            NICKind(sp.Kind),
		Params:          core.Config{O: sp.O, B: sp.B, D: sp.D, W: sp.W, AckOnArrival: sp.AckOnArrival},
		Seed:            sp.Seed,
		PendingInterval: sim.Cycle(sp.PendingInterval),
		Program:         program,
		EngineShards:    sp.Shards,
		Window:          sp.Window,
		Dist:            w,
	}
	if sp.Check {
		opts.Check = &check.Options{
			Interval: sim.Cycle(sp.CheckInterval),
			Sequence: true, InOrder: true, // Build forces these off under Dist
			OnViolation: func(v check.Violation) {
				if len(*fails) < 16 {
					*fails = append(*fails, v.String())
				}
			},
		}
	}
	return opts
}

// distCmd is one launcher->worker control frame.
type distCmd struct {
	// Op is "run" (advance Cycles), "rundone" (RunUntilDone with budget
	// Cycles, then settle and finish the checker), or "finish" (report the
	// final record and exit).
	Op     string
	Cycles int64
}

// distRecord is a worker's reply to "run"/"rundone": its local slice of the
// observable state plus the globally-agreed fields used as determinism
// tripwires (Now and Pend must be identical in every worker).
type distRecord struct {
	Now   int64
	Stats nic.Stats
	Net   int
	Pend  int
	Done  bool
	Fails []string `json:",omitempty"`
}

// distFinal is the reply to "finish".
type distFinal struct {
	Heatmap string
	Total   int64
	Fails   []string `json:",omitempty"`
}

// DistWorkerMain, called first thing in main before any flag parsing, checks
// whether this process is a re-exec'd distributed worker and, if so, runs the
// worker protocol to completion and reports true (main should exit). The
// protocol: read the DistSpec, build the worker's slice of the simulation,
// acknowledge readiness, then serve run commands until told to finish or the
// launcher disappears.
func DistWorkerMain() bool {
	w, ok := dist.JoinWorker()
	if !ok {
		return false
	}
	defer w.Close()
	specB, err := w.ReadControl()
	if err != nil {
		return true // launcher died before the handshake
	}
	var spec DistSpec
	if err := json.Unmarshal(specB, &spec); err != nil {
		panic(fmt.Sprintf("harness: worker %d: bad spec: %v", w.Rank, err))
	}
	var fails []string
	s := Build(spec.buildOpts(w, &fails))
	defer s.Close()
	mustSend(w, []byte("ready"))
	for {
		b, err := w.ReadControl()
		if err != nil {
			return true // launcher closed the run
		}
		var cmd distCmd
		if err := json.Unmarshal(b, &cmd); err != nil {
			panic(fmt.Sprintf("harness: worker %d: bad command: %v", w.Rank, err))
		}
		switch cmd.Op {
		case "run":
			s.Eng.Run(sim.Cycle(cmd.Cycles))
			mustSendJSON(w, s.record(fails))
		case "rundone":
			// Every worker receives the same budget and stops at the same
			// boundary (the done predicate is exchanged), so the settle run
			// and checker finish happen in lockstep too.
			ok, _ := s.RunUntilDone(sim.Cycle(cmd.Cycles))
			if ok {
				s.Eng.Run(500)
				if s.Checker != nil {
					s.Checker.Finish(s.Eng.Now())
				}
			}
			r := s.record(fails)
			r.Done = ok
			mustSendJSON(w, r)
		case "finish":
			mustSendJSON(w, distFinal{
				Heatmap: s.Pending.Heatmap(),
				Total:   s.AggregateStats().Accepted,
				Fails:   fails,
			})
			return true
		default:
			panic(fmt.Sprintf("harness: worker %d: unknown op %q", w.Rank, cmd.Op))
		}
	}
}

// record snapshots the worker's observable state between runs.
func (s *Sim) record(fails []string) distRecord {
	return distRecord{
		Now:   s.Eng.Now(),
		Stats: s.AggregateStats(),
		Net:   s.Net.BufferedFlits(),
		Pend:  s.Pending.Max(),
		Done:  s.Done(),
		Fails: fails,
	}
}

func mustSend(w *dist.Worker, b []byte) {
	if err := w.SendControl(b); err != nil {
		panic(fmt.Sprintf("harness: worker %d: control send: %v", w.Rank, err))
	}
}

func mustSendJSON(w *dist.Worker, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("harness: worker %d: marshal: %v", w.Rank, err))
	}
	mustSend(w, b)
}

// distLaunch starts procs workers, ships them the spec, and waits for every
// readiness acknowledgment.
func distLaunch(spec DistSpec, procs int) (*dist.Cluster, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c, err := dist.Launch(procs)
	if err != nil {
		return nil, err
	}
	specB, err := json.Marshal(&spec)
	if err != nil {
		c.Kill()
		c.Close()
		return nil, err
	}
	for r := 0; r < procs; r++ {
		if err := c.Send(r, specB); err != nil {
			c.Kill()
			c.Close()
			return nil, fmt.Errorf("harness: spec to worker %d: %w", r, err)
		}
	}
	for r := 0; r < procs; r++ {
		b, err := c.Recv(r)
		if err != nil || string(b) != "ready" {
			c.Kill()
			c.Close()
			return nil, fmt.Errorf("harness: worker %d failed to build (%q, %v)", r, b, err)
		}
	}
	return c, nil
}

// distBroadcast sends cmd to every worker and gathers one record from each.
func distBroadcast(c *dist.Cluster, cmd distCmd) ([]distRecord, error) {
	b, err := json.Marshal(&cmd)
	if err != nil {
		return nil, err
	}
	for r := 0; r < c.Procs(); r++ {
		if err := c.Send(r, b); err != nil {
			return nil, fmt.Errorf("harness: command to worker %d: %w", r, err)
		}
	}
	recs := make([]distRecord, c.Procs())
	for r := 0; r < c.Procs(); r++ {
		rb, err := c.Recv(r)
		if err != nil {
			return nil, fmt.Errorf("harness: record from worker %d: %w", r, err)
		}
		if err := json.Unmarshal(rb, &recs[r]); err != nil {
			return nil, fmt.Errorf("harness: record from worker %d: %w", r, err)
		}
	}
	return recs, nil
}

// mergeRecords folds per-worker records into the global view: Now and Pend
// must agree everywhere (they are derived from exchanged state — any drift is
// a determinism bug), local stats and fabric occupancy sum, done ANDs.
func mergeRecords(recs []distRecord) (distRecord, error) {
	g := recs[0]
	for r := 1; r < len(recs); r++ {
		rec := recs[r]
		if rec.Now != g.Now || rec.Pend != g.Pend {
			return g, fmt.Errorf("harness: workers disagree: worker %d at (now %d, pend %d), worker 0 at (now %d, pend %d)",
				r, rec.Now, rec.Pend, g.Now, g.Pend)
		}
		g.Stats.Add(&rec.Stats)
		g.Net += rec.Net
		g.Done = g.Done && rec.Done
		g.Fails = append(g.Fails, rec.Fails...)
	}
	return g, nil
}

// DistTrace runs the spec across procs worker processes, driving them
// through the same chunked schedule as goldenTrace and assembling the
// identical state-trace string from the merged records — the multi-process
// column of the determinism matrix. Every worker must agree on Now, Pend,
// and the heatmap at every step.
func DistTrace(spec DistSpec, procs int, cycles, chunk sim.Cycle) (string, error) {
	c, err := distLaunch(spec, procs)
	if err != nil {
		return "", err
	}
	defer c.Close()
	var b strings.Builder
	now := sim.Cycle(0)
	for now < cycles {
		recs, err := distBroadcast(c, distCmd{Op: "run", Cycles: chunk})
		if err != nil {
			c.Kill()
			return "", err
		}
		g, err := mergeRecords(recs)
		if err != nil {
			c.Kill()
			return "", err
		}
		now = g.Now
		fmt.Fprintf(&b, "@%d %+v net=%d pend=%d done=%v\n",
			g.Now, g.Stats, g.Net, g.Pend, g.Done)
	}
	finB, err := json.Marshal(&distCmd{Op: "finish"})
	if err != nil {
		c.Kill()
		return "", err
	}
	var total int64
	var heatmap string
	for r := 0; r < procs; r++ {
		if err := c.Send(r, finB); err != nil {
			c.Kill()
			return "", err
		}
	}
	for r := 0; r < procs; r++ {
		fb, err := c.Recv(r)
		if err != nil {
			c.Kill()
			return "", fmt.Errorf("harness: final from worker %d: %w", r, err)
		}
		var fin distFinal
		if err := json.Unmarshal(fb, &fin); err != nil {
			c.Kill()
			return "", err
		}
		if r == 0 {
			heatmap = fin.Heatmap
		} else if fin.Heatmap != heatmap {
			c.Kill()
			return "", fmt.Errorf("harness: worker %d heatmap diverges from worker 0", r)
		}
		total += fin.Total
	}
	if spec.PendingInterval > 0 {
		b.WriteString(heatmap)
	}
	fmt.Fprintf(&b, "total=%d\n", total)
	if err := c.Close(); err != nil {
		return "", err
	}
	return b.String(), nil
}

// DistRunToDone runs the spec across procs workers to completion (fuzz
// mode): RunUntilDone with the given budget, a settle window, and the
// invariant monitors' finish pass, returning the summed stats, the global
// done flag, and any monitor violations.
func DistRunToDone(spec DistSpec, procs int, maxCycles sim.Cycle) (nic.Stats, bool, []string, error) {
	c, err := distLaunch(spec, procs)
	if err != nil {
		return nic.Stats{}, false, nil, err
	}
	defer c.Close()
	recs, err := distBroadcast(c, distCmd{Op: "rundone", Cycles: maxCycles})
	if err != nil {
		c.Kill()
		return nic.Stats{}, false, nil, err
	}
	g, err := mergeRecords(recs)
	if err != nil {
		c.Kill()
		return nic.Stats{}, false, nil, err
	}
	// Done is exchanged, so it must also be unanimous.
	for r, rec := range recs {
		if rec.Done != recs[0].Done {
			c.Kill()
			return nic.Stats{}, false, nil, fmt.Errorf("harness: worker %d done=%v disagrees", r, rec.Done)
		}
	}
	if err := c.Close(); err != nil {
		return nic.Stats{}, false, nil, err
	}
	return g.Stats, g.Done, g.Fails, nil
}
