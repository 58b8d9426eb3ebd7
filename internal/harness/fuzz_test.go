package harness

import (
	"os"
	"strconv"
	"testing"

	"nifdy/internal/sim"
)

// envInt reads a positive integer override, for the check-deep target.
func envInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return def
}

// TestFuzzSweepClean drives randomized (topology, NIC, parameter corner,
// traffic, shard count) configurations with every invariant monitor armed.
// Defaults keep the run small; `make check-deep` scales it up via
// NIFDY_FUZZ_TRIALS / NIFDY_FUZZ_PACKETS / NIFDY_FUZZ_SEED.
func TestFuzzSweepClean(t *testing.T) {
	trials := 6
	if testing.Short() {
		trials = 2
	}
	o := FuzzOpts{
		Trials:  envInt("NIFDY_FUZZ_TRIALS", trials),
		Packets: envInt("NIFDY_FUZZ_PACKETS", 0),
		Seed:    uint64(envInt("NIFDY_FUZZ_SEED", 20260806)),
	}
	// One run per trial at each of the three default shard counts.
	want := 3 * o.Trials
	res := FuzzSweep(o)
	if res.Runs != want {
		t.Fatalf("ran %d simulations, want %d", res.Runs, want)
	}
	for _, f := range res.Failures {
		t.Errorf("%s", f)
	}
}

// TestFuzzSweepShapes pins the sweep's own plumbing: a tiny sweep runs the
// requested trial x shard matrix and reports per-run metadata.
func TestFuzzSweepShapes(t *testing.T) {
	res := FuzzSweep(FuzzOpts{Trials: 1, Shards: []int{1}, Seed: 7,
		Packets: 4, MaxCycles: 400_000, Interval: 64})
	if res.Runs != 1 {
		t.Fatalf("runs = %d", res.Runs)
	}
	for _, f := range res.Failures {
		t.Errorf("%s", f)
	}
}

var _ = sim.Cycle(0)
