package mesh

import (
	"testing"
	"testing/quick"

	"nifdy/internal/packet"
	"nifdy/internal/topo"
	"nifdy/internal/topo/topotest"
)

func TestMeshHops(t *testing.T) {
	m := New(Config{Dims: []int{8, 8}})
	cases := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 7, 7}, {0, 63, 14}, {9, 18, 2}, {0, 8, 1},
	}
	for _, c := range cases {
		if got := m.Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestTorusHopsWrap(t *testing.T) {
	m := New(Config{Dims: []int{8, 8}, Torus: true})
	if got := m.Hops(0, 7); got != 1 {
		t.Errorf("torus Hops(0,7) = %d, want 1 (wrap)", got)
	}
	if got := m.Hops(0, 63); got != 2 {
		t.Errorf("torus Hops(0,63) = %d, want 2", got)
	}
}

func TestMeshChars(t *testing.T) {
	c := New(Config{Dims: []int{8, 8}}).Chars()
	if c.Nodes != 64 || c.MaxHops != 14 || !c.InOrder {
		t.Fatalf("chars %+v", c)
	}
	// Average distance of an 8x8 mesh is 2*(64-8)/(... ) = 5.25 exactly:
	// E|x1-x2| for uniform distinct nodes; known value 2 * (k^2-1)/(3k) per
	// dim over ordered distinct pairs is close to 5.25; just sanity-band it.
	if c.AvgHops < 5 || c.AvgHops > 5.5 {
		t.Fatalf("avg hops %v", c.AvgHops)
	}
	// Bisection: 16 unidirectional links / cpf 4.
	if c.BisectionFPC != 4 {
		t.Fatalf("bisection %v", c.BisectionFPC)
	}
}

func TestTorusCharsBisectionDoubled(t *testing.T) {
	mesh := New(Config{Dims: []int{8, 8}}).Chars()
	tor := New(Config{Dims: []int{8, 8}, Torus: true}).Chars()
	if tor.BisectionFPC != 2*mesh.BisectionFPC {
		t.Fatalf("torus bisection %v, mesh %v", tor.BisectionFPC, mesh.BisectionFPC)
	}
	if tor.MaxHops != 8 {
		t.Fatalf("torus max hops %d", tor.MaxHops)
	}
}

func TestTorusForcesTwoVCs(t *testing.T) {
	m := New(Config{Dims: []int{4, 4}, Torus: true, VCs: 1})
	if m.cfg.VCs != 2 {
		t.Fatalf("torus built with %d VCs", m.cfg.VCs)
	}
}

func TestMeshDelivery(t *testing.T) {
	m := New(Config{Dims: []int{4, 4}})
	h := topotest.NewHarness(t, m)
	h.EnqueueRandom(200, 8, 1)
	h.Run(200000)
	h.CheckPairOrder()
	h.CheckDrained()
}

func Test3DMeshDelivery(t *testing.T) {
	m := New(Config{Dims: []int{3, 3, 3}})
	h := topotest.NewHarness(t, m)
	h.EnqueueRandom(150, 8, 2)
	h.Run(200000)
	h.CheckPairOrder()
	h.CheckDrained()
}

func TestTorusDelivery(t *testing.T) {
	m := New(Config{Dims: []int{4, 4}, Torus: true})
	h := topotest.NewHarness(t, m)
	h.EnqueueRandom(200, 8, 3)
	h.Run(200000)
	h.CheckPairOrder()
	h.CheckDrained()
}

func TestTorusAllToAllNoDeadlock(t *testing.T) {
	// All-to-all saturates every ring, the worst case for torus deadlock;
	// the dateline VC rule must keep it live.
	m := New(Config{Dims: []int{4, 4}, Torus: true})
	h := topotest.NewHarness(t, m)
	h.AllPairs(8)
	h.Run(2000000)
	h.CheckDrained()
}

func TestMeshAllToAllNoDeadlock(t *testing.T) {
	m := New(Config{Dims: []int{4, 4}})
	h := topotest.NewHarness(t, m)
	h.AllPairs(8)
	h.Run(2000000)
	h.CheckDrained()
}

func TestMeshInOrderWithSingleVC(t *testing.T) {
	m := New(Config{Dims: []int{4, 4}})
	h := topotest.NewHarness(t, m)
	for i := 0; i < 30; i++ {
		h.Enqueue(0, 15, 8, packet.Request)
	}
	h.Run(200000)
	h.CheckPairOrder()
}

func TestHopsSymmetricProperty(t *testing.T) {
	m := New(Config{Dims: []int{5, 7}})
	tr := New(Config{Dims: []int{5, 7}, Torus: true})
	f := func(a, b uint8) bool {
		x, y := int(a)%35, int(b)%35
		return m.Hops(x, y) == m.Hops(y, x) && tr.Hops(x, y) == tr.Hops(y, x) &&
			tr.Hops(x, y) <= m.Hops(x, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRouteReachesDestinationProperty(t *testing.T) {
	// Property: following the route function from any source always reaches
	// the destination's local port within MaxHops steps.
	for _, torus := range []bool{false, true} {
		m := New(Config{Dims: []int{4, 4}, Torus: torus})
		f := func(a, b uint8) bool {
			src, dst := int(a)%16, int(b)%16
			p := &packet.Packet{Src: src, Dst: dst, Words: 8, Dialog: packet.NoDialog}
			at := src
			for hop := 0; hop <= m.Chars().MaxHops+1; hop++ {
				ch := m.route(at, p, nil)
				if len(ch) != 1 {
					return false
				}
				port := ch[0].Port
				if port == 0 {
					return at == dst
				}
				d := (port - 1) / 2
				dir := 1
				if (port-1)%2 == 1 {
					dir = -1
				}
				size := m.cfg.Dims[d]
				c := m.coord(at, d)
				nc := c + dir
				if m.cfg.Torus {
					nc = (nc + size) % size
				}
				if nc < 0 || nc >= size {
					return false
				}
				at += (nc - c) * m.strides[d]
			}
			return false
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("torus=%v: %v", torus, err)
		}
	}
}

func TestBadConfigsPanic(t *testing.T) {
	for _, dims := range [][]int{{8}, {1, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", dims)
				}
			}()
			New(Config{Dims: dims})
		}()
	}
}

func TestVolumeMatchesPaperIntuition(t *testing.T) {
	// Paper §2.4.3: the 8x8 wormhole mesh has "eight words per node (two
	// words for each incoming link)" per logical network. With two logical
	// networks (request/reply) our volume doubles that.
	c := New(Config{Dims: []int{8, 8}}).Chars()
	perNode := c.VolumeFlits / c.Nodes
	if perNode != 16 {
		t.Fatalf("volume per node = %d flits, want 16 (8 per logical network)", perNode)
	}
}

func TestLossyMeshDropsSome(t *testing.T) {
	m := New(Config{Dims: []int{4, 4}, Iface: topo.IfaceOptions{DropProb: 0.5, Seed: 9}})
	h := topotest.NewHarness(t, m)
	const n = 100
	// Enqueue from one sender so we can count drops deterministically.
	r := 0
	for i := 0; i < n; i++ {
		h.Enqueue(0, 1+i%15, 8, packet.Request)
		r++
	}
	// Run manually: not all will be delivered, so don't use h.Run.
	next := 0
	for cyc := 0; cyc < 100000; cyc++ {
		now := h.Eng.Now()
		for nd := 0; nd < 16; nd++ {
			ifc := m.Iface(nd)
			ifc.Pump(now)
			for {
				if _, ok := ifc.Deliver(now, nil); !ok {
					break
				}
			}
		}
		ifc := m.Iface(0)
		if next < n {
			if ifc.CanAccept(packet.Request) {
				p := &packet.Packet{ID: uint64(next + 1), Src: 0, Dst: 1 + next%15, Words: 8, Dialog: packet.NoDialog}
				ifc.StartSend(now, p)
				next++
			}
		}
		h.Eng.Step()
	}
	var delivered, dropped int64
	for nd := 0; nd < 16; nd++ {
		_, d, dr := m.Iface(nd).Stats()
		delivered += d
		dropped += dr
	}
	if next != n {
		t.Fatalf("injected %d/%d", next, n)
	}
	if delivered+dropped != n {
		t.Fatalf("delivered %d + dropped %d != %d", delivered, dropped, n)
	}
	if dropped < n/4 || dropped > 3*n/4 {
		t.Fatalf("dropped %d of %d at p=0.5", dropped, n)
	}
}

func TestAdaptiveMeshDelivery(t *testing.T) {
	m := New(Config{Dims: []int{4, 4}, Adaptive: true, Seed: 5})
	h := topotest.NewHarness(t, m)
	h.EnqueueRandom(200, 8, 6)
	h.Run(300000)
	h.CheckDrained()
	if m.Chars().InOrder {
		t.Fatal("adaptive mesh must not claim in-order delivery")
	}
}

func TestAdaptiveMeshAllToAllNoDeadlock(t *testing.T) {
	// West-first must stay deadlock-free with a single VC even under
	// all-to-all saturation.
	m := New(Config{Dims: []int{4, 4}, Adaptive: true, Seed: 7})
	h := topotest.NewHarness(t, m)
	h.AllPairs(8)
	h.Run(2000000)
	h.CheckDrained()
}

func TestWestFirstRouteProperty(t *testing.T) {
	// Property: any adaptive choice sequence reaches the destination, and
	// no west hop ever follows a non-west hop.
	m := New(Config{Dims: []int{8, 8}, Adaptive: true, Seed: 8})
	f := func(a, b, pick uint8) bool {
		src, dst := int(a)%64, int(b)%64
		p := &packet.Packet{Src: src, Dst: dst, Words: 8, Dialog: packet.NoDialog}
		at := src
		wentNonWest := false
		for hop := 0; hop <= 20; hop++ {
			ch := m.route(at, p, nil)
			if len(ch) == 0 {
				return false
			}
			port := ch[int(pick)%len(ch)].Port
			if port == 0 {
				return at == dst
			}
			d := (port - 1) / 2
			dir := 1
			if (port-1)%2 == 1 {
				dir = -1
			}
			if d == 0 && dir == -1 {
				if wentNonWest {
					return false // west after a non-west hop: turn violation
				}
			} else {
				wentNonWest = true
			}
			at += dir * m.strides[d]
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Dims: []int{4, 4}, Adaptive: true, Torus: true},
		{Dims: []int{3, 3, 3}, Adaptive: true},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestHypercubeDelivery(t *testing.T) {
	// A 4-cube: 16 nodes as Dims [2,2,2,2]; dimension-order routing is the
	// classic e-cube algorithm.
	m := New(Config{Dims: []int{2, 2, 2, 2}})
	if m.Nodes() != 16 {
		t.Fatalf("nodes = %d", m.Nodes())
	}
	c := m.Chars()
	if c.MaxHops != 4 {
		t.Fatalf("4-cube max hops = %d", c.MaxHops)
	}
	h := topotest.NewHarness(t, m)
	h.EnqueueRandom(150, 8, 30)
	h.Run(300000)
	h.CheckPairOrder()
	h.CheckDrained()
}

func TestHypercubeHops(t *testing.T) {
	m := New(Config{Dims: []int{2, 2, 2, 2, 2, 2}}) // 6-cube, 64 nodes
	if m.Nodes() != 64 {
		t.Fatalf("nodes = %d", m.Nodes())
	}
	// Hamming distance: 0b000000 to 0b111111 is 6 hops.
	if got := m.Hops(0, 63); got != 6 {
		t.Fatalf("Hops(0,63) = %d", got)
	}
	if got := m.Hops(5, 5); got != 0 {
		t.Fatalf("Hops(5,5) = %d", got)
	}
}
