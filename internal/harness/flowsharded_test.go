package harness

import (
	"strings"
	"testing"

	"nifdy/internal/sim"
	"nifdy/internal/traffic"
)

// TestFlowShardedDeterminism is the flow-mode counterpart of
// TestShardedDeterminism: the rate solver runs on the stepping goroutine
// while NICs tick on per-shard goroutines, handing off sends and arrival-
// buffer credits through per-shard staging lists. Merging those lists in
// node order must make the whole simulation bit-identical for any shard
// count — same final stats, every Pending sample, completion state.
func TestFlowShardedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-workload determinism suite is slow")
	}
	const seed = 1995
	shardCounts := []int{1, 2, 4}
	cases := []struct {
		name   string
		cycles sim.Cycle
		opts   func() BuildOpts
	}{
		// Figure 2 workload (heavy) saturates the solver: maximum flow
		// churn, parked queues, and stall transitions.
		{"flow-mesh2d-nifdy-heavy", 10_000, func() BuildOpts {
			c := traffic.Heavy(64, seed)
			c.Phases = 1 << 20
			return BuildOpts{Net: FlowTwin(Mesh2D()), Kind: NIFDY, Seed: seed,
				PendingInterval: 500, Program: programFromTraffic(c)}
		}},
		// Light load exercises the idle-skip path: the fabric must wake
		// exactly on drain and landing events regardless of sharding.
		{"flow-fattree-nifdy-light", 12_000, func() BuildOpts {
			c := traffic.Light(64, seed)
			c.Phases = 1 << 20
			return BuildOpts{Net: FlowTwin(FullFatTree()), Kind: NIFDY, Seed: seed,
				PendingInterval: 500, Program: programFromTraffic(c)}
		}},
		// Plain NICs never back off, so the solver sees the densest flow
		// population and the most rate re-solves per cycle.
		{"flow-mesh2d-plain-heavy", 10_000, func() BuildOpts {
			c := traffic.Heavy(64, seed)
			c.Phases = 1 << 20
			return BuildOpts{Net: FlowTwin(Mesh2D()), Kind: Plain, Seed: seed,
				PendingInterval: 500, Program: programFromTraffic(c)}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			traces := make([]string, len(shardCounts))
			tasks := make([]func(), len(shardCounts))
			for i, n := range shardCounts {
				i, n := i, n
				tasks[i] = func() {
					opts := tc.opts()
					opts.EngineShards = n
					traces[i] = goldenTrace(t, opts, tc.cycles, 500)
				}
			}
			runParallel(tasks)
			ref := traces[0]
			if strings.Contains(ref, "total=0\n") {
				t.Fatalf("reference trace moved no packets — workload is vacuous:\n%s", ref)
			}
			for i, n := range shardCounts[1:] {
				if traces[i+1] != ref {
					t.Errorf("shards=%d diverges from shards=1:\nreference:\n%s\ngot:\n%s",
						n, ref, traces[i+1])
				}
			}
		})
	}
}
