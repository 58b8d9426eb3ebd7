package harness

import (
	"fmt"
	"strings"
	"testing"

	"nifdy/internal/sim"
	"nifdy/internal/topo"
	"nifdy/internal/traffic"
)

// TestShardedDeterminism is the cross-shard-wire counterpart of the golden
// determinism suite: Figure 2/3-style workloads on every partition shape
// (mesh and 3-D mesh blocks, torus blocks with wraparound cross edges,
// full, CM-5 and store-and-forward fat-tree subtrees, butterfly and
// multibutterfly node groups) must produce bit-identical traces — final stats, every Pending
// sample, and completion state — at shards ∈ {1, 2, 4, 8}. The serial
// engine (shards=1) is the reference. The NIFDY rows run again at W = 4
// (the "-w4" subtests): the window is a model parameter, so their serial
// reference is built with the same W, and the shards then free-run four
// cycles between barriers. `make race` runs this under the race detector,
// which additionally proves the staged-send protocol has no cross-shard data
// races.
func TestShardedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-workload determinism suite is slow")
	}
	const seed = 1995
	shardCounts := []int{1, 2, 4, 8}
	row := func(net func() NetSpec, kind NICKind, light bool) func() BuildOpts {
		return func() BuildOpts {
			c := traffic.Heavy(64, seed)
			if light {
				c = traffic.Light(64, seed)
			}
			c.Phases = 1 << 20
			return BuildOpts{Net: net(), Kind: kind, Seed: seed,
				PendingInterval: 500, Program: traffic.NewGen(c, nil).Program}
		}
	}
	cases := []struct {
		name    string
		cycles  sim.Cycle
		opts    func() BuildOpts
		windows []int
	}{
		// Figure 2 workload (heavy) on contiguous mesh blocks.
		{"mesh2d-nifdy-heavy", 10_000, row(Mesh2D, NIFDY, false), []int{1, 4}},
		// Torus wraparound links always cross the first/last shard boundary.
		{"torus2d-nifdy-heavy", 10_000, row(Torus2D, NIFDY, false), []int{1, 4}},
		// Figure 3 workload (light) on fat-tree subtree partitions, where
		// upper-level routers and their links split across shards.
		{"fattree-nifdy-light", 12_000, row(FullFatTree, NIFDY, true), []int{1, 4}},
		// Plain NICs saturate the fabric hardest (no flow control), pushing
		// the most flits across shard boundaries per cycle.
		{"mesh2d-plain-heavy", 10_000, row(Mesh2D, Plain, false), []int{1}},
		{"torus2d-plain-heavy", 10_000, row(Torus2D, Plain, false), []int{1}},
		{"fattree-plain-light", 12_000, row(FullFatTree, Plain, true), []int{1}},
		// The other placements: butterfly stages spread by node group
		// (middle-stage routers' channels cross shards), the CM-5 and
		// store-and-forward trees' subtrees, and 3-D mesh blocks.
		{"butterfly-nifdy-light", 12_000, row(Butterfly, NIFDY, true), []int{1, 4}},
		{"multibutterfly-nifdy-light", 12_000, row(Multibutterfly, NIFDY, true), []int{1}},
		{"cm5-nifdy-light", 12_000, row(CM5FatTree, NIFDY, true), []int{1, 4}},
		{"sf-nifdy-light", 12_000, row(SFFatTree, NIFDY, true), []int{1}},
		{"mesh3d-nifdy-heavy", 10_000, row(Mesh3D, NIFDY, false), []int{1}},
	}
	for _, tc := range cases {
		for _, w := range tc.windows {
			name := tc.name
			if w > 1 {
				name = fmt.Sprintf("%s-w%d", tc.name, w)
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				traces := make([]string, len(shardCounts))
				tasks := make([]func(), len(shardCounts))
				for i, n := range shardCounts {
					tasks[i] = func() {
						opts := tc.opts()
						opts.EngineShards = n
						opts.Window = w
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
						t.Errorf("shards=%d diverges from shards=1 at W=%d:\nreference:\n%s\ngot:\n%s",
							n, w, ref, traces[i+1])
					}
				}
			})
		}
	}
}

// TestWindowSamplerGrid pins the step-hook clock contract: samplers land on
// exactly the same ticks whatever the window size, even when the interval
// does not divide W (hook clocks clamp window ends onto the sample grid).
func TestWindowSamplerGrid(t *testing.T) {
	const interval = 7
	var want []sim.Cycle
	for _, w := range []int{1, 4, 64} {
		c := traffic.Light(64, 7)
		c.Phases = 4
		s := Build(BuildOpts{
			Net: Mesh2D(), Kind: NIFDY, Seed: 7,
			PendingInterval: interval, Program: traffic.NewGen(c, nil).Program,
			EngineShards: 2, Window: w,
		})
		s.Eng.Run(2_000)
		_, times := s.Pending.Samples()
		s.Close()
		for i, at := range times {
			if at != sim.Cycle(i)*interval {
				t.Fatalf("W=%d: sample %d landed at cycle %d, want %d", w, i, at, i*interval)
			}
		}
		if w == 1 {
			want = times
		} else if len(times) != len(want) {
			t.Fatalf("W=%d took %d samples, W=1 took %d", w, len(times), len(want))
		}
	}
}

// TestEngineShardsFromPartition pins where the engine's shard count comes
// from: the network's partition, with EngineShards only the request. The
// flow fabric's partition is all zeros, so every flow build is serial, and a
// fat tree gets no more shards than it has leaf groups.
func TestEngineShardsFromPartition(t *testing.T) {
	flowMesh := func() NetSpec { return FlowTwin(Mesh2D()) }
	cases := []struct {
		net          func() NetSpec
		engineShards int
		want         int
	}{
		{flowMesh, 1, 1},
		{flowMesh, 2, 1},
		{flowMesh, 4, 1},
		{Mesh2D, 4, 4},
		{FullFatTree, 32, 16},
	}
	for _, tc := range cases {
		s := Build(BuildOpts{Net: tc.net(), Kind: NIFDY, Seed: 7, EngineShards: tc.engineShards})
		got := s.Eng.Shards()
		s.Close()
		if got != tc.want {
			t.Errorf("%s at EngineShards %d: %d engine shards, want %d",
				tc.net().Name, tc.engineShards, got, tc.want)
		}
	}

	net := flowMesh().Build(7, topo.IfaceOptions{Seed: 7})
	e := sim.NewParallel(2)
	defer e.Close()
	defer func() {
		if recover() == nil {
			t.Error("binding a flow fabric to a 2-shard engine did not panic")
		}
	}()
	net.RegisterRoutersSharded(e, net.Partition(2))
}
