package sim

import (
	"runtime"
	"testing"
)

// TestRegistrationGrowthGarbage registers 50,000 components one at a time
// and holds the bytes allocated while the shard's registration tables (its
// component table and queue bitmap) grow to 2.5× what they hold at the end.
// Geometric growth allocates about twice the final tables; append's 1.25×
// steps for large slices allocate four to five times them, and with no
// collection during build all of it counts towards a large simulation's
// peak memory.
func TestRegistrationGrowthGarbage(t *testing.T) {
	const n = 50_000
	comps := make([]sleeper, n)
	e := New()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range comps {
		e.Register(&comps[i])
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(e)
	if len(e.shards[0].comps) != n {
		t.Fatalf("%d components registered, want %d", len(e.shards[0].comps), n)
	}
	allocated, live := after.TotalAlloc-before.TotalAlloc, after.HeapAlloc-before.HeapAlloc
	t.Logf("allocated %d B, live %d B (%.2f×)", allocated, live, float64(allocated)/float64(live))
	if float64(allocated) > 2.5*float64(live) {
		t.Fatalf("registering %d components allocated %d B for %d B of tables (%.2f×, want <= 2.5×)",
			n, allocated, live, float64(allocated)/float64(live))
	}
}
