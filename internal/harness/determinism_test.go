package harness

import (
	"fmt"
	"strings"
	"testing"

	"nifdy/internal/core"
	"nifdy/internal/sim"
	"nifdy/internal/traffic"
)

// The golden determinism suite is the tentpole proof for the engine's
// scheduling optimizations: the serial every-cycle engine is the reference
// schedule, and every other mode — quiescence skipping, the persistent
// worker pool, and their combination — must produce a bit-identical state
// trace on full experiment workloads.

type engineMode struct {
	name   string
	shards int
	skip   bool
}

var engineModes = []engineMode{
	{"serial-noskip", 1, false}, // reference: every component, every cycle
	{"serial-skip", 1, true},
	{"parallel2-noskip", 2, false},
	{"parallel4-skip", 4, true},
}

// goldenTrace runs opts for the given cycle budget, recording a signature of
// all observable state every chunk cycles: every NIC counter the experiments
// report, fabric occupancy, and the pending-per-receiver peak. Any schedule
// divergence shows up as a differing trace.
func goldenTrace(t *testing.T, opts BuildOpts, cycles, chunk sim.Cycle) string {
	t.Helper()
	s := Build(opts)
	defer s.Close()
	var b strings.Builder
	for s.Eng.Now() < cycles {
		s.Eng.Run(chunk)
		ag := s.AggregateStats()
		fmt.Fprintf(&b, "@%d %+v net=%d pend=%d done=%v\n",
			s.Eng.Now(), ag, s.Net.BufferedFlits(), s.Pending.Max(), s.Done())
	}
	if opts.PendingInterval > 0 {
		b.WriteString(s.Pending.Heatmap())
	}
	fmt.Fprintf(&b, "total=%d\n", s.Accepted())
	return b.String()
}

func TestGoldenDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-workload determinism suite is slow")
	}
	const seed = 1995
	cases := []struct {
		name   string
		cycles sim.Cycle
		opts   func() BuildOpts
	}{
		{"mesh-plain-heavy", 10_000, func() BuildOpts {
			c := traffic.Heavy(64, seed)
			c.Phases = 1 << 20
			return BuildOpts{Net: Mesh2D(), Kind: Plain, Seed: seed,
				Program: traffic.NewGen(c, nil).Program}
		}},
		{"mesh-nifdy-heavy", 10_000, func() BuildOpts {
			c := traffic.Heavy(64, seed)
			c.Phases = 1 << 20
			return BuildOpts{Net: Mesh2D(), Kind: NIFDY, Seed: seed,
				Program: traffic.NewGen(c, nil).Program}
		}},
		{"fattree-buffers-light", 12_000, func() BuildOpts {
			c := traffic.Light(64, seed)
			c.Phases = 1 << 20
			return BuildOpts{Net: FullFatTree(), Kind: BuffersOnly, Seed: seed,
				Program: traffic.NewGen(c, nil).Program}
		}},
		// Light load is where skipping elides the most ticks, and the
		// heatmap checks the stats sampler's interval sleeps cycle-exactly.
		{"fattree-nifdy-light-heatmap", 12_000, func() BuildOpts {
			c := traffic.Light(64, seed)
			c.Phases = 1 << 20
			return BuildOpts{Net: FullFatTree(), Kind: NIFDY, Seed: seed,
				PendingInterval: 500, Program: traffic.NewGen(c, nil).Program}
		}},
		// Piggybacked acks exercise the held-ack (due-time) sleep bound.
		{"cm5-nifdy-piggyback", 12_000, func() BuildOpts {
			c := traffic.Light(64, seed)
			c.Phases = 1 << 20
			return BuildOpts{Net: CM5FatTree(), Kind: NIFDY, Seed: seed,
				Params:  core.Config{Piggyback: true},
				Program: traffic.NewGen(c, nil).Program}
		}},
		// Losses exercise the retransmission-deadline sleep bound: the
		// timeout (4096) fires well inside the budget on idle units.
		{"mesh-nifdy-lossy-retx", 14_000, func() BuildOpts {
			c := traffic.Light(64, seed)
			c.Phases = 1 << 20
			return BuildOpts{Net: Mesh2D(), Kind: NIFDY, Seed: seed, Drop: 0.02,
				Params:  core.Config{Retransmit: true},
				Program: traffic.NewGen(c, nil).Program}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			traces := make([]string, len(engineModes))
			tasks := make([]func(), len(engineModes))
			for i, m := range engineModes {
				tasks[i] = func() {
					opts := tc.opts()
					opts.EngineShards = m.shards
					opts.DisableIdleSkip = !m.skip
					traces[i] = goldenTrace(t, opts, tc.cycles, 500)
				}
			}
			runParallel(tasks)
			ref := traces[0]
			if strings.Contains(ref, "total=0\n") {
				t.Fatalf("reference trace moved no packets — workload is vacuous:\n%s", ref)
			}
			for i, m := range engineModes[1:] {
				if traces[i+1] != ref {
					t.Errorf("%s diverges from %s:\nreference:\n%s\ngot:\n%s",
						m.name, engineModes[0].name, ref, traces[i+1])
				}
			}
		})
	}
}
