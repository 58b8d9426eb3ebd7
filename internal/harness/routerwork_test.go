package harness

import (
	"testing"

	"nifdy/internal/router"
	"nifdy/internal/topo"
	"nifdy/internal/traffic"
)

// routerWork runs the Figure 2 cell the flit_heavy workload measures (8x8
// mesh, NIFDY, heavy traffic, seed 1995) for 20k cycles and returns the
// summed router work block.
func routerWork(shards, window int) router.Work {
	const seed = 1995
	c := traffic.Heavy(64, seed)
	c.Phases = 1 << 20
	s := Build(BuildOpts{Net: Mesh2D(), Kind: NIFDY, Seed: seed,
		EngineShards: shards, Window: window, Program: programFromTraffic(c)})
	defer s.Close()
	s.Eng.Run(20_000)
	return topo.RouterWork(s.Net)
}

// TestRouterWorkPerEvent gates the router's work per event, in counts that
// do not depend on the host: a router tick touches the wires that have a due
// event, not every connected one (polling touched 9.2 per tick on this cell
// to drain 0.97), and an allocation pass runs only when its outcome can have
// changed (the every-cycle retry ran 5.34 passes per grant; 1.37 now).
func TestRouterWorkPerEvent(t *testing.T) {
	w := routerWork(1, 1)
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
	one, two := routerWork(1, 4), routerWork(2, 4)
	if one != two {
		t.Errorf("router work differs across shard counts at W=4:\n1 shard:  %+v\n2 shards: %+v", one, two)
	}
}
