package flow

import (
	"runtime"
	"testing"
)

// TestFlowTableGrowthGarbage admits 50,000 flows one at a time and holds the
// bytes allocated while the per-flow tables and the drain wheel's node table
// grow to 2.5× what they hold at the end. Geometric growth allocates about
// twice the final tables; append's 1.25× steps for large slices allocate
// four to five times them, and with no collection during warm-up all of it
// counts towards flow_scale's peak memory.
func TestFlowTableGrowthGarbage(t *testing.T) {
	const n = 50_000
	f := New(Config{Nodes: 2})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range n {
		f.allocFlow()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(f)
	if len(f.fPkt) != n {
		t.Fatalf("%d flow ids allocated, want %d", len(f.fPkt), n)
	}
	allocated, live := after.TotalAlloc-before.TotalAlloc, after.HeapAlloc-before.HeapAlloc
	t.Logf("allocated %d B, live %d B (%.2f×)", allocated, live, float64(allocated)/float64(live))
	if float64(allocated) > 2.5*float64(live) {
		t.Fatalf("admitting %d flows allocated %d B for %d B of tables (%.2f×, want <= 2.5×)",
			n, allocated, live, float64(allocated)/float64(live))
	}
}
