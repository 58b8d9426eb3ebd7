package harness

import (
	"testing"

	"nifdy/internal/router"
	"nifdy/internal/sim"
	"nifdy/internal/topo"
	"nifdy/internal/traffic"
)

// workCell runs the Figure 2 cell the flit_heavy workload measures (8x8
// mesh, NIFDY, heavy traffic, seed 1995) for 20k cycles and returns the
// summed router work block and the engine's counters.
func workCell(shards, window int) (router.Work, sim.Stats) {
	const seed = 1995
	c := traffic.Heavy(64, seed)
	c.Phases = 1 << 20
	s := Build(BuildOpts{Net: Mesh2D(), Kind: NIFDY, Seed: seed,
		EngineShards: shards, Window: window, Program: traffic.NewGen(c, nil).Program})
	defer s.Close()
	s.Eng.Run(20_000)
	return topo.RouterWork(s.Net), s.Eng.Stats()
}

// TestRouterWorkPerEvent gates the router's work per event, in counts that
// do not depend on the host: a router tick touches the wires that have a due
// event, not every connected one (polling touched 9.2 per tick on this cell
// to drain 0.97), and an allocation pass runs only when its outcome can have
// changed (the every-cycle retry ran 5.34 passes per grant; 1.37 now).
func TestRouterWorkPerEvent(t *testing.T) {
	w, _ := workCell(1, 1)
	if w.AllocGrants == 0 || w.Ticks == 0 || w.FlitsForwarded == 0 {
		t.Fatalf("vacuous run: %+v", w)
	}
	passes := float64(w.AllocPasses) / float64(w.AllocGrants)
	wires := float64(w.WiresDrained) / float64(w.Ticks)
	t.Logf("%+v: %.3f allocation passes per grant, %.3f wires drained per tick", w, passes, wires)
	if passes > 2 {
		t.Errorf("%.3f allocation passes per grant, ceiling 2", passes)
	}
	if wires > 1.5 {
		t.Errorf("%.3f wires drained per router tick, ceiling 1.5", wires)
	}
}

// TestRouterWorkShardIdentity: the work block is determined by the seed, not
// by how the fabric is cut — one shard and two agree on every counter.
func TestRouterWorkShardIdentity(t *testing.T) {
	one, _ := workCell(1, 4)
	two, _ := workCell(2, 4)
	if one != two {
		t.Errorf("router work differs across shard counts at W=4:\n1 shard:  %+v\n2 shards: %+v", one, two)
	}
}

// TestEngineWorkPerEvent gates the scheduler's work per Tick on the same
// cell. A visit that finds its component asleep and a timer filed on the
// wheel are scheduling, not simulated work: 0.036 and 0.225 per Tick of
// 1,218,308 here. The Tick count is a function of the seed alone, the same
// at one shard and two.
func TestEngineWorkPerEvent(t *testing.T) {
	_, st := workCell(1, 1)
	if st.Ticks == 0 {
		t.Fatalf("vacuous run: %+v", st)
	}
	notDue := float64(st.NotDue) / float64(st.Ticks)
	filed := float64(st.TimersFiled) / float64(st.Ticks)
	t.Logf("%+v: %.3f not-due visits and %.3f timers filed per Tick", st, notDue, filed)
	if notDue > 0.05 {
		t.Errorf("%.3f not-due visits per Tick, ceiling 0.05", notDue)
	}
	if filed > 0.25 {
		t.Errorf("%.3f timers filed per Tick, ceiling 0.25", filed)
	}
	_, one := workCell(1, 4)
	_, two := workCell(2, 4)
	if one.Ticks != two.Ticks {
		t.Errorf("Ticks differ across shard counts at W=4: 1 shard %d, 2 shards %d", one.Ticks, two.Ticks)
	}
}

// TestFlowEngineWork gates the scheduler's work on the flow_procs cell
// (1,024 NIFDY units and processors over the 32x32 flow mesh, heavy traffic,
// seed 1995; 8,000 cycles after 2,000 of warm-up). A NIFDY unit blocked on a
// busy flow-fabric slot parks until the solver's retire wakes it, so the
// timers left on the wheel are deadlines the units and processors set
// themselves. Parking on the flow's drain bound instead filed 20.12 timers
// and ran 44.1 ticks per cycle here; 7.08 and 42.8 now.
func TestFlowEngineWork(t *testing.T) {
	const seed, warm, window = 1995, 2_000, 8_000
	c := traffic.Heavy(1024, seed)
	c.Phases = 1 << 20
	s := Build(BuildOpts{Net: FlowMeshSized(32, 32), Kind: NIFDY, Seed: seed, Program: traffic.NewGen(c, nil).Program})
	defer s.Close()
	s.Eng.Run(warm)
	before := s.Eng.Stats()
	s.Eng.Run(window)
	st := s.Eng.Stats()
	timers := float64(st.TimersFiled-before.TimersFiled) / window
	ticks := float64(st.Ticks-before.Ticks) / window
	t.Logf("%.2f timers filed and %.1f ticks per cycle", timers, ticks)
	if ticks == 0 {
		t.Fatal("vacuous run: no ticks")
	}
	if timers > 7.5 {
		t.Errorf("%.2f timers filed per cycle, ceiling 7.5", timers)
	}
	if ticks > 43.5 {
		t.Errorf("%.1f ticks per cycle, ceiling 43.5", ticks)
	}
}
