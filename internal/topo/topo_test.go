package topo_test

import (
	"runtime"
	"testing"

	"nifdy/internal/packet"
	"nifdy/internal/router"
	"nifdy/internal/sim"
	"nifdy/internal/topo"
	"nifdy/internal/topo/butterfly"
	"nifdy/internal/topo/fattree"
	"nifdy/internal/topo/mesh"
)

func TestAlignedPartitionDegenerate(t *testing.T) {
	cases := []struct {
		name                 string
		nodes, align, shards int
	}{
		{"single shard", 64, 1, 1},
		{"zero shards", 64, 1, 0},
		{"negative shards", 64, 4, -3},
		{"zero align", 64, 0, 4},
		{"negative align", 64, -1, 4},
		{"fewer nodes than one group", 3, 4, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := topo.AlignedPartition(c.nodes, c.align, c.shards)
			if len(got) != c.nodes {
				t.Fatalf("len = %d, want %d", len(got), c.nodes)
			}
			for n, s := range got {
				if s != 0 {
					t.Fatalf("node %d in shard %d, want the all-zeros map", n, s)
				}
			}
		})
	}
}

// TestAlignedPartitionProperties checks the contract for every combination a
// topology can plausibly ask for: shard indices form contiguous non-decreasing
// blocks whose boundaries fall only on multiples of align, every shard up to
// the clamped count is populated, and sizes balance to within one group.
func TestAlignedPartitionProperties(t *testing.T) {
	for _, nodes := range []int{4, 16, 63, 64, 100} {
		for _, align := range []int{1, 4, 8} {
			for _, shards := range []int{2, 3, 4, 8, 100} {
				got := topo.AlignedPartition(nodes, align, shards)
				groups := nodes / align
				if groups < 1 {
					continue // degenerate case covered above
				}
				eff := shards
				if eff > groups {
					eff = groups
				}
				sizes := make(map[int]int)
				for n := 0; n < nodes; n++ {
					s := got[n]
					if s < 0 || s >= eff {
						t.Fatalf("nodes=%d align=%d shards=%d: node %d in shard %d, want [0,%d)",
							nodes, align, shards, n, s, eff)
					}
					if n > 0 {
						if s < got[n-1] {
							t.Fatalf("nodes=%d align=%d shards=%d: shard decreases at node %d",
								nodes, align, shards, n)
						}
						if s != got[n-1] && n%align != 0 {
							t.Fatalf("nodes=%d align=%d shards=%d: boundary at node %d splits a group",
								nodes, align, shards, n)
						}
					}
					sizes[s]++
				}
				if len(sizes) != eff {
					t.Fatalf("nodes=%d align=%d shards=%d: %d shards populated, want %d",
						nodes, align, shards, len(sizes), eff)
				}
				// Balance: ignoring the remainder nodes that ride with the
				// last group, shard sizes differ by at most one group.
				min, max := nodes+1, 0
				rem := nodes % align
				for s, sz := range sizes {
					if s == got[nodes-1] {
						sz -= rem
					}
					if sz < min {
						min = sz
					}
					if sz > max {
						max = sz
					}
				}
				if max-min > align {
					t.Fatalf("nodes=%d align=%d shards=%d: shard sizes %v unbalanced beyond one group",
						nodes, align, shards, sizes)
				}
			}
		}
	}
}

func TestAlignedPartitionRemainderRidesLastGroup(t *testing.T) {
	// 10 nodes, groups of 4: nodes 8 and 9 form a partial group and must
	// land in the same shard as the last full group (nodes 4-7).
	got := topo.AlignedPartition(10, 4, 2)
	want := []int{0, 0, 0, 0, 1, 1, 1, 1, 1, 1}
	for n := range want {
		if got[n] != want[n] {
			t.Fatalf("partition %v, want %v", got, want)
		}
	}
}

// TestMarkCross exercises the cross-shard edge marking end to end on a real
// two-shard engine: a cross-shard edge's flit link stages sends (invisible to
// the consumer) until the flush barrier, its credit wire stages in the
// opposite direction, and a same-shard edge is left untouched so sends are
// visible immediately.
func TestMarkCross(t *testing.T) {
	e := sim.NewParallel(2)
	defer e.Close()

	same := router.NewChannel(1, 1)  // both endpoints in shard 0
	cross := router.NewChannel(1, 1) // node 0 (shard 0) -> node 1 (shard 1)
	edges := []topo.Edge{
		{Ch: same, From: 0, To: 0},
		{Ch: cross, From: 0, To: 1},
	}
	topo.MarkCross(e, edges, func(key int) int { return key })

	now := e.Now()
	pkt := &packet.Packet{Src: 0, Dst: 1, Words: 1}
	same.Flits.Send(now, packet.Flit{Pkt: pkt})
	cross.Flits.Send(now, packet.Flit{Pkt: pkt})
	// Credits flow To->From: the consumer (shard 1) is the credit writer.
	same.Credits.Send(now, router.Credit{VC: 0})
	cross.Credits.Send(now, router.Credit{VC: 0})

	if got := same.Flits.Pending(); got != 1 {
		t.Errorf("same-shard flit link staged a send: pending = %d, want 1", got)
	}
	if got := same.Credits.Pending(); got != 1 {
		t.Errorf("same-shard credit wire staged a send: pending = %d, want 1", got)
	}
	if got := cross.Flits.Pending(); got != 0 {
		t.Errorf("cross-shard flit link leaked before flush: pending = %d, want 0", got)
	}
	if got := cross.Credits.Pending(); got != 0 {
		t.Errorf("cross-shard credit wire leaked before flush: pending = %d, want 0", got)
	}

	// One engine step runs the flush barrier, merging staged sends into the
	// consumer-visible event lists.
	e.Step()
	if got := cross.Flits.Pending(); got != 1 {
		t.Errorf("cross-shard flit link after flush: pending = %d, want 1", got)
	}
	if got := cross.Credits.Pending(); got != 1 {
		t.Errorf("cross-shard credit wire after flush: pending = %d, want 1", got)
	}
}

// TestMarkCrossSameShardUnmarked pins that MarkCross leaves a fully
// shard-internal edge list alone even on a multi-shard engine.
func TestMarkCrossSameShardUnmarked(t *testing.T) {
	e := sim.NewParallel(2)
	defer e.Close()
	ch := router.NewChannel(1, 1)
	topo.MarkCross(e, []topo.Edge{{Ch: ch, From: 5, To: 9}}, func(int) int { return 1 })
	ch.Flits.Send(e.Now(), packet.Flit{})
	if got := ch.Flits.Pending(); got != 1 {
		t.Fatalf("same-shard edge was marked cross-shard: pending = %d, want 1", got)
	}
}

// TestRegistrationAllocatesNoFabricState pins the one state layout: the
// constructors allocate every flit ring, credit table, owner table and wire
// event list, and registering the fabric with an engine is bookkeeping only
// (component lists, activities, cross-edge marks). A registration pass that
// re-allocated the hot state — a second layout copied from the first — would
// put the two deltas within a small factor of each other.
func TestRegistrationAllocatesNoFabricState(t *testing.T) {
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	cases := []struct {
		name string
		new  func() topo.Network
	}{
		{"mesh", func() topo.Network { return mesh.New(mesh.Config{Dims: []int{9, 9}, BufFlits: 64}) }},
		{"fattree", func() topo.Network { return fattree.New(fattree.Config{}) }},
		{"butterfly", func() topo.Network { return butterfly.New(butterfly.Config{}) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var net topo.Network
			build := allocated(func() { net = c.new() })
			e := sim.New()
			register := allocated(func() { net.RegisterRoutersSharded(e, net.Partition(1)) })
			t.Logf("construction %d B, registration %d B", build, register)
			if register*8 >= build {
				t.Errorf("registration allocated %d bytes against %d at construction: want under one eighth",
					register, build)
			}
		})
	}
}
