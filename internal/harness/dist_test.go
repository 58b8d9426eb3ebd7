package harness

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"nifdy/internal/sim"
	"nifdy/internal/traffic"
)

// TestMain lets the test binary serve as a distributed worker: DistTrace and
// DistRunToDone re-exec os.Args[0], and a spawned copy of this binary must
// join the worker protocol instead of running the test suite.
func TestMain(m *testing.M) {
	if DistWorkerMain() {
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestDistributedDeterminism is the multi-process column of the determinism
// matrix: the same workloads as TestShardedDeterminism, run as {shards x
// processes} splits over the socket transport, must reproduce the serial
// golden trace byte for byte — stats, fabric occupancy, pending peaks,
// heatmaps, and completion cycles. W = 4 additionally exercises the
// conservative window (its serial reference is built with the same W, since
// the window is a model parameter).
func TestDistributedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process determinism suite is slow")
	}
	const seed = 1995
	const chunk = 500
	type split struct{ shards, procs int }
	splits := []split{{1, 1}, {4, 2}, {4, 4}}
	cases := []struct {
		name    string
		cycles  sim.Cycle
		net     func() NetSpec
		distNet string
		kind    NICKind
		light   bool
		windows []int
	}{
		{"mesh2d-nifdy-heavy", 10_000, Mesh2D, "mesh2d", NIFDY, false, []int{1, 4}},
		{"torus2d-nifdy-heavy", 10_000, Torus2D, "torus2d", NIFDY, false, []int{1, 4}},
		{"fattree-nifdy-light", 12_000, FullFatTree, "fattree", NIFDY, true, []int{1, 4}},
		{"mesh2d-plain-heavy", 10_000, Mesh2D, "mesh2d", Plain, false, []int{1}},
		{"torus2d-plain-heavy", 10_000, Torus2D, "torus2d", Plain, false, []int{1}},
		{"fattree-plain-light", 12_000, FullFatTree, "fattree", Plain, true, []int{1}},
	}
	for _, tc := range cases {
		tc := tc
		for _, w := range tc.windows {
			w := w
			t.Run(fmt.Sprintf("%s/w%d", tc.name, w), func(t *testing.T) {
				t.Parallel()
				pattern := "heavy"
				if tc.light {
					pattern = "light"
				}
				// Serial and in-process sharded references at the same W.
				refs := make([]string, 3)
				refShards := []int{1, 2, 4}
				tasks := make([]func(), len(refShards))
				for i, n := range refShards {
					i, n := i, n
					tasks[i] = func() {
						c := traffic.Heavy(64, seed)
						if tc.light {
							c = traffic.Light(64, seed)
						}
						c.Phases = 1 << 20
						refs[i] = goldenTrace(t, BuildOpts{
							Net: tc.net(), Kind: tc.kind, Seed: seed,
							PendingInterval: 500, Program: programFromTraffic(c),
							EngineShards: n, Window: w,
						}, tc.cycles, chunk)
					}
				}
				runParallel(tasks)
				ref := refs[0]
				if strings.Contains(ref, "total=0\n") {
					t.Fatalf("reference trace moved no packets — workload is vacuous:\n%s", ref)
				}
				for i, n := range refShards[1:] {
					if refs[i+1] != ref {
						t.Fatalf("in-process shards=%d diverges from serial at W=%d:\nreference:\n%s\ngot:\n%s",
							n, w, ref, refs[i+1])
					}
				}
				spec := DistSpec{
					Net: tc.distNet, Kind: int(tc.kind), Window: w, Seed: seed,
					PendingInterval: 500, Pattern: pattern, Phases: 1 << 20,
				}
				for _, sp := range splits {
					spec.Shards = sp.shards
					got, err := DistTrace(spec, sp.procs, tc.cycles, chunk)
					if err != nil {
						t.Fatalf("%dx%d: %v", sp.shards, sp.procs, err)
					}
					if got != ref {
						t.Errorf("%d shards over %d processes diverges from serial at W=%d:\nreference:\n%s\ngot:\n%s",
							sp.shards, sp.procs, w, ref, got)
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
			PendingInterval: interval, Program: programFromTraffic(c),
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
