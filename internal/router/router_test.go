package router

import (
	"reflect"
	"testing"

	"nifdy/internal/packet"
	"nifdy/internal/rng"
	"nifdy/internal/sim"
)

// line builds a two-node network: iface0 - R0 - R1 - iface1. Port layout on
// each router: in/out 0 = local iface, in/out 1 = the other router.
type line struct {
	eng    *sim.Engine
	ifaces [2]*Iface
	rts    [2]*Router
	ids    packet.IDSource
}

func newLine(t *testing.T, vcs, bufFlits, cpf int, saf bool, drop float64) *line {
	t.Helper()
	l := &line{eng: sim.New()}
	route := func(self int) RouteFn {
		return func(in int, p *packet.Packet, scratch []Choice) []Choice {
			if p.Dst == self {
				return append(scratch, Choice{Port: 0})
			}
			return append(scratch, Choice{Port: 1})
		}
	}
	for i := 0; i < 2; i++ {
		l.rts[i] = New(Config{ID: i, InPorts: 2, OutPorts: 2, VCs: vcs, BufFlits: bufFlits, SAF: saf, Route: route(i)})
		cfg := IfaceConfig{Node: i, VCs: vcs, BufFlits: 16}
		if drop > 0 {
			cfg.DropProb = drop
			cfg.RNG = rng.NewStream(1, uint64(i))
		}
		l.ifaces[i] = NewIface(cfg)
	}
	for i := 0; i < 2; i++ {
		up := NewChannel(cpf, 1)
		l.ifaces[i].ConnectOut(up, bufFlits)
		l.rts[i].ConnectIn(0, up)
		down := NewChannel(cpf, 1)
		l.rts[i].ConnectOut(0, down, l.ifaces[i].BufFlits())
		l.ifaces[i].ConnectIn(down)
	}
	r01 := NewChannel(cpf, 1)
	l.rts[0].ConnectOut(1, r01, bufFlits)
	l.rts[1].ConnectIn(1, r01)
	r10 := NewChannel(cpf, 1)
	l.rts[1].ConnectOut(1, r10, bufFlits)
	l.rts[0].ConnectIn(1, r10)
	for i := 0; i < 2; i++ {
		l.eng.Register(l.ifaces[i])
		l.eng.Register(l.rts[i])
	}
	return l
}

func (l *line) pkt(src, dst, words int, class packet.Class) *packet.Packet {
	return &packet.Packet{ID: l.ids.Next(), Src: src, Dst: dst, Words: int32(words), Class: class, Dialog: packet.NoDialog}
}

func TestSingleHopDelivery(t *testing.T) {
	l := newLine(t, 1, 8, 4, false, 0)
	p := l.pkt(0, 1, 8, packet.Request)
	l.ifaces[0].StartSend(l.eng.Now(), p)
	var got *packet.Packet
	ok := l.eng.RunUntil(func() bool {
		if g, ok := l.ifaces[1].Deliver(l.eng.Now(), nil); ok {
			got = g
			return true
		}
		return false
	}, 10000)
	if !ok {
		t.Fatal("packet never delivered")
	}
	if got != p {
		t.Fatalf("delivered wrong packet %v", got)
	}
	if got.DeliveredAt <= got.InjectedAt {
		t.Fatalf("timestamps not ordered: injected %d delivered %d", got.InjectedAt, got.DeliveredAt)
	}
}

func TestDeliveryLatencyIsPlausible(t *testing.T) {
	// 8 flits at 4 cycles each = 32 cycles serialization minimum; two links
	// plus router hops add pipeline but wormhole keeps it well under
	// store-and-forward (3 x 32).
	l := newLine(t, 1, 8, 4, false, 0)
	p := l.pkt(0, 1, 8, packet.Request)
	l.ifaces[0].StartSend(0, p)
	l.eng.RunUntil(func() bool {
		_, ok := l.ifaces[1].Deliver(l.eng.Now(), nil)
		return ok
	}, 10000)
	lat := p.DeliveredAt - p.InjectedAt
	if lat < 32 {
		t.Fatalf("latency %d under serialization bound 32", lat)
	}
	if lat > 96 {
		t.Fatalf("wormhole latency %d looks store-and-forward", lat)
	}
}

func TestSAFSlowerThanWormhole(t *testing.T) {
	run := func(saf bool) sim.Cycle {
		l := newLine(t, 1, 8, 4, saf, 0)
		p := l.pkt(0, 1, 8, packet.Request)
		l.ifaces[0].StartSend(0, p)
		l.eng.RunUntil(func() bool {
			_, ok := l.ifaces[1].Deliver(l.eng.Now(), nil)
			return ok
		}, 10000)
		return p.DeliveredAt - p.InjectedAt
	}
	wh, saf := run(false), run(true)
	if saf <= wh {
		t.Fatalf("store-and-forward (%d) not slower than wormhole (%d)", saf, wh)
	}
}

func TestManyPacketsAllDeliveredInOrder(t *testing.T) {
	l := newLine(t, 2, 4, 4, false, 0)
	const n = 50
	sent := 0
	var got []*packet.Packet
	l.eng.RunUntil(func() bool {
		now := l.eng.Now()
		if sent < n && l.ifaces[0].CanAccept(packet.Request) {
			p := l.pkt(0, 1, 8, packet.Request)
			p.Meta.Index = int32(sent)
			l.ifaces[0].StartSend(now, p)
			sent++
		}
		for {
			p, ok := l.ifaces[1].Deliver(now, nil)
			if !ok {
				break
			}
			got = append(got, p)
		}
		return len(got) == n
	}, 200000)
	if len(got) != n {
		t.Fatalf("delivered %d/%d", len(got), n)
	}
	for i, p := range got {
		if int(p.Meta.Index) != i {
			t.Fatalf("single-path network reordered: position %d has index %d", i, p.Meta.Index)
		}
	}
}

func TestClassesShareLinkFairly(t *testing.T) {
	// Saturate both classes; both must make progress (demand multiplexing).
	l := newLine(t, 1, 8, 4, false, 0)
	sent := [2]int{}
	recv := [2]int{}
	l.eng.RunUntil(func() bool {
		now := l.eng.Now()
		for c := 0; c < 2; c++ {
			cl := packet.Class(c)
			if l.ifaces[0].CanAccept(cl) {
				p := l.pkt(0, 1, 8, cl)
				l.ifaces[0].StartSend(now, p)
				sent[c]++
			}
		}
		for {
			p, ok := l.ifaces[1].Deliver(now, nil)
			if !ok {
				break
			}
			recv[p.Class]++
		}
		return recv[0]+recv[1] >= 40
	}, 200000)
	if recv[0] < 10 || recv[1] < 10 {
		t.Fatalf("class starvation: recv = %v", recv)
	}
}

func TestBackpressureWithoutLoss(t *testing.T) {
	l := newLine(t, 1, 4, 4, false, 0)
	const n = 30
	sent := 0
	// Phase 1: receiver never pulls. Sender injects until the fabric fills.
	for cyc := 0; cyc < 20000; cyc++ {
		now := l.eng.Now()
		if sent < n && l.ifaces[0].CanAccept(packet.Request) {
			l.ifaces[0].StartSend(now, l.pkt(0, 1, 8, packet.Request))
			sent++
		}
		l.eng.Step()
	}
	if sent == n {
		t.Fatalf("fabric absorbed all %d packets with no receiver: no backpressure", n)
	}
	// Phase 2: receiver drains; every packet must eventually arrive.
	got := 0
	ok := l.eng.RunUntil(func() bool {
		now := l.eng.Now()
		if sent < n && l.ifaces[0].CanAccept(packet.Request) {
			l.ifaces[0].StartSend(now, l.pkt(0, 1, 8, packet.Request))
			sent++
		}
		for {
			if _, k := l.ifaces[1].Deliver(now, nil); !k {
				break
			}
			got++
		}
		return got == n
	}, 500000)
	if !ok {
		t.Fatalf("after draining, delivered %d/%d", got, n)
	}
}

func TestDropAllPackets(t *testing.T) {
	l := newLine(t, 1, 8, 4, false, 1.0)
	const n = 10
	sent, cycles := 0, 0
	for sent < n || cycles < 5000 {
		now := l.eng.Now()
		if sent < n && l.ifaces[0].CanAccept(packet.Request) {
			l.ifaces[0].StartSend(now, l.pkt(0, 1, 8, packet.Request))
			sent++
		}
		if _, ok := l.ifaces[1].Deliver(now, nil); ok {
			t.Fatal("packet delivered despite drop probability 1")
		}
		l.eng.Step()
		cycles++
	}
	if sent != n {
		t.Fatalf("loss blocked the fabric: only %d/%d injected (credits leaked)", sent, n)
	}
	_, _, dropped := l.ifaces[1].Stats()
	if dropped != n {
		t.Fatalf("dropped %d, want %d", dropped, n)
	}
}

func TestAckSingleFlit(t *testing.T) {
	l := newLine(t, 1, 8, 4, false, 0)
	a := l.pkt(1, 0, 1, packet.Reply)
	a.Kind = packet.Ack
	l.ifaces[1].StartSend(0, a)
	ok := l.eng.RunUntil(func() bool {
		_, ok := l.ifaces[0].Deliver(l.eng.Now(), func(p *packet.Packet) bool { return p.Kind == packet.Ack })
		return ok
	}, 1000)
	if !ok {
		t.Fatal("ack not delivered")
	}
	// One flit at cpf 4 over 3 links: latency must be far under a data
	// packet's 32-cycle serialization.
	if lat := a.DeliveredAt - a.InjectedAt; lat > 24 {
		t.Fatalf("ack latency %d", lat)
	}
}

func TestDeliverPredicateSkipsNonMatching(t *testing.T) {
	l := newLine(t, 2, 8, 4, false, 0)
	d := l.pkt(0, 1, 8, packet.Request)
	a := l.pkt(0, 1, 1, packet.Reply)
	a.Kind = packet.Ack
	l.ifaces[0].StartSend(0, d)
	l.eng.Step()
	l.ifaces[0].StartSend(l.eng.Now(), a)
	var gotAck *packet.Packet
	l.eng.RunUntil(func() bool {
		if p, ok := l.ifaces[1].Deliver(l.eng.Now(), func(p *packet.Packet) bool { return p.Kind == packet.Ack }); ok {
			gotAck = p
			return true
		}
		return false
	}, 10000)
	if gotAck != a {
		t.Fatalf("predicate delivery returned %v", gotAck)
	}
	// The data packet must still be deliverable.
	var gotData *packet.Packet
	l.eng.RunUntil(func() bool {
		if p, ok := l.ifaces[1].Deliver(l.eng.Now(), nil); ok {
			gotData = p
			return true
		}
		return false
	}, 10000)
	if gotData != d {
		t.Fatalf("data packet lost after predicate delivery: %v", gotData)
	}
}

// TestDeliverRotatesOverEjectVCs: Deliver scans the ejection VCs from the
// one after its last delivery, wrapping at the VC count. With two packets
// waiting on each of four VCs it takes one packet from each VC in turn.
// The packets are 2 flits long so that a wrap that compared against the
// packet's flit count instead of the VC count would restart at VC 0.
func TestDeliverRotatesOverEjectVCs(t *testing.T) {
	f := NewIface(IfaceConfig{Node: 0, VCs: 2, BufFlits: 8})
	ch := NewChannel(1, 1)
	f.ConnectIn(ch)
	nvc := len(f.eject)
	if nvc != 4 {
		t.Fatalf("%d ejection VCs; want 4", nvc)
	}
	vcOf := map[*packet.Packet]int{}
	now := sim.Cycle(0)
	for range 2 {
		for g := range nvc {
			p := &packet.Packet{ID: uint64(len(vcOf)), Words: 2, Dialog: packet.NoDialog}
			vcOf[p] = g
			for i := range p.Flits() {
				ch.Flits.Send(now, packet.Flit{Pkt: p, Index: i, VC: g})
				now++
			}
		}
	}
	for c := sim.Cycle(0); c < now+4; c++ {
		f.Tick(c)
	}
	var got []int
	for {
		p, ok := f.Deliver(now, nil)
		if !ok {
			break
		}
		got = append(got, vcOf[p])
	}
	if want := []int{0, 1, 2, 3, 0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered from VCs %v; want %v", got, want)
	}
}

func TestBidirectionalTraffic(t *testing.T) {
	l := newLine(t, 1, 8, 4, false, 0)
	recv := [2]int{}
	const n = 20
	sent := [2]int{}
	ok := l.eng.RunUntil(func() bool {
		now := l.eng.Now()
		for i := 0; i < 2; i++ {
			if sent[i] < n && l.ifaces[i].CanAccept(packet.Request) {
				l.ifaces[i].StartSend(now, l.pkt(i, 1-i, 8, packet.Request))
				sent[i]++
			}
			for {
				if _, k := l.ifaces[i].Deliver(now, nil); !k {
					break
				}
				recv[i]++
			}
		}
		return recv[0] == n && recv[1] == n
	}, 200000)
	if !ok {
		t.Fatalf("bidirectional delivery incomplete: %v", recv)
	}
}

func TestRouterTwoInputsShareOutput(t *testing.T) {
	// A 3-port router: inputs 0 and 1 both feed output 2. Both flows must
	// progress (round-robin arbitration).
	eng := sim.New()
	rt := New(Config{ID: 0, InPorts: 2, OutPorts: 1, VCs: 1, BufFlits: 8,
		Route: func(in int, p *packet.Packet, s []Choice) []Choice {
			return append(s, Choice{Port: 0})
		}})
	var ifs [2]*Iface
	for i := 0; i < 2; i++ {
		ifs[i] = NewIface(IfaceConfig{Node: i, VCs: 1, BufFlits: 16})
		ch := NewChannel(4, 1)
		ifs[i].ConnectOut(ch, 8)
		rt.ConnectIn(i, ch)
		eng.Register(ifs[i])
	}
	sink := NewIface(IfaceConfig{Node: 2, VCs: 1, BufFlits: 16})
	out := NewChannel(4, 1)
	rt.ConnectOut(0, out, sink.BufFlits())
	sink.ConnectIn(out)
	eng.Register(sink)
	eng.Register(rt)

	var ids packet.IDSource
	recvBySrc := map[int]int{}
	total := 0
	eng.RunUntil(func() bool {
		now := eng.Now()
		for i := 0; i < 2; i++ {
			if ifs[i].CanAccept(packet.Request) {
				p := &packet.Packet{ID: ids.Next(), Src: i, Dst: 2, Words: 8, Dialog: packet.NoDialog}
				ifs[i].StartSend(now, p)
			}
		}
		for {
			p, ok := sink.Deliver(now, nil)
			if !ok {
				break
			}
			recvBySrc[p.Src]++
			total++
		}
		return total >= 40
	}, 100000)
	if recvBySrc[0] < 12 || recvBySrc[1] < 12 {
		t.Fatalf("arbitration starved a source: %v", recvBySrc)
	}
}

func TestPacketsIntactUnderVCInterleaving(t *testing.T) {
	// With 2 VCs, consecutive packets can interleave on the link; the iface
	// must reassemble them without mixing flits.
	l := newLine(t, 2, 4, 2, false, 0)
	const n = 30
	sent, got := 0, 0
	lens := map[uint64]int{}
	l.eng.RunUntil(func() bool {
		now := l.eng.Now()
		if sent < n && l.ifaces[0].CanAccept(packet.Request) {
			words := 4 + sent%5
			p := l.pkt(0, 1, words, packet.Request)
			lens[p.ID] = words
			l.ifaces[0].StartSend(now, p)
			sent++
		}
		for {
			p, ok := l.ifaces[1].Deliver(now, nil)
			if !ok {
				break
			}
			if lens[p.ID] != int(p.Words) {
				t.Fatalf("packet %d corrupted: words %d, want %d", p.ID, p.Words, lens[p.ID])
			}
			got++
		}
		return got == n
	}, 200000)
	if got != n {
		t.Fatalf("delivered %d/%d", got, n)
	}
}

func TestConservationInvariant(t *testing.T) {
	l := newLine(t, 2, 4, 4, false, 0)
	const n = 25
	sent, got := 0, 0
	l.eng.RunUntil(func() bool {
		now := l.eng.Now()
		if sent < n && l.ifaces[0].CanAccept(packet.Request) {
			l.ifaces[0].StartSend(now, l.pkt(0, 1, 8, packet.Request))
			sent++
		}
		for {
			if _, ok := l.ifaces[1].Deliver(now, nil); !ok {
				break
			}
			got++
		}
		return got == n
	}, 200000)
	inj0, _, _ := l.ifaces[0].Stats()
	_, del1, drop1 := l.ifaces[1].Stats()
	if inj0 != n || del1 != n || drop1 != 0 {
		t.Fatalf("conservation violated: injected %d delivered %d dropped %d want %d", inj0, del1, drop1, n)
	}
	if l.rts[0].BufferedFlits() != 0 || l.rts[1].BufferedFlits() != 0 {
		t.Fatalf("flits stranded in routers: %d %d", l.rts[0].BufferedFlits(), l.rts[1].BufferedFlits())
	}
}

// TestBlockedHeadCostsNoAllocationPasses: inputs 0 and 1 both route to the
// one VC of output 0. Packet A takes it; B's head arrives behind A, fails one
// allocation pass, and then waits — the pass can only succeed once A's tail
// send frees the VC, so the router runs none in between, and grants B on the
// very next cycle. The delivery cycles pinned below are the ones the
// every-cycle retry produced, recorded at the commit before the dirty flag.
func TestBlockedHeadCostsNoAllocationPasses(t *testing.T) {
	eng := sim.New()
	rt := New(Config{ID: 0, InPorts: 2, OutPorts: 1, VCs: 1, BufFlits: 8,
		Route: func(in int, p *packet.Packet, s []Choice) []Choice {
			return append(s, Choice{Port: 0})
		}})
	var ifs [2]*Iface
	for i := range ifs {
		ifs[i] = NewIface(IfaceConfig{Node: i, VCs: 1, BufFlits: 16})
		ch := NewChannel(4, 1)
		ifs[i].ConnectOut(ch, 8)
		rt.ConnectIn(i, ch)
		eng.Register(ifs[i])
	}
	sink := NewIface(IfaceConfig{Node: 2, VCs: 1, BufFlits: 16})
	out := NewChannel(4, 1)
	rt.ConnectOut(0, out, sink.BufFlits())
	sink.ConnectIn(out)
	eng.Register(sink)
	eng.Register(rt)

	a := &packet.Packet{ID: 1, Src: 0, Dst: 2, Words: 8, Dialog: packet.NoDialog}
	b := &packet.Packet{ID: 2, Src: 1, Dst: 2, Words: 8, Dialog: packet.NoDialog}
	ifs[0].StartSend(0, a)
	eng.Run(8)
	ifs[1].StartSend(eng.Now(), b)

	// B's head reaches the router at cycle 12 and A's tail leaves at 32: in
	// between, the blocked head is the only unrouted one.
	eng.Run(12)
	if w := rt.Work(); w.AllocPasses != 2 || w.AllocGrants != 1 {
		t.Fatalf("at cycle %d: %+v; want 2 passes (A granted, B refused) and 1 grant", eng.Now(), w)
	}
	eng.Run(12)
	if w := rt.Work(); w.AllocPasses != 2 || w.AllocGrants != 1 {
		t.Fatalf("at cycle %d: %+v; the blocked head must cost no allocation pass while A owns the VC", eng.Now(), w)
	}
	var got []*packet.Packet
	eng.RunUntil(func() bool {
		if p, ok := sink.Deliver(eng.Now(), nil); ok {
			got = append(got, p)
		}
		return len(got) == 2
	}, 1000)
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("delivered %v; want A then B", got)
	}
	if w := rt.Work(); w.AllocPasses != 3 || w.AllocGrants != 2 || w.FlitsForwarded != 16 {
		t.Fatalf("%+v; want 3 passes, 2 grants, 16 flits forwarded", w)
	}
	if a.DeliveredAt != 37 || b.DeliveredAt != 69 {
		t.Fatalf("A delivered at %d, B at %d; the every-cycle retry delivered them at 37 and 69", a.DeliveredAt, b.DeliveredAt)
	}
}

// TestWorkAddSumsEveryField: a counter added to Work must be added to Add,
// or the per-network sum silently drops it.
func TestWorkAddSumsEveryField(t *testing.T) {
	var w, one Work
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	w.Add(one)
	w.Add(one)
	got := reflect.ValueOf(w)
	for i := 0; i < got.NumField(); i++ {
		if got.Field(i).Int() != int64(2*(i+1)) {
			t.Errorf("Work.Add drops %s", got.Type().Field(i).Name)
		}
	}
}

// TestVCQueuesKeepBuildSize: every input-VC queue and ejection queue is
// sized to its credit bound when it is built. The overflow panics fire
// before a push into a full queue, so a queue sized at build never grows.
func TestVCQueuesKeepBuildSize(t *testing.T) {
	const bufFlits = 4
	l := newLine(t, 2, bufFlits, 1, false, 0)
	for _, r := range l.rts {
		for i := range r.in {
			for v := range r.in[i].vcs {
				if c := r.in[i].vcs[v].q.Cap(); c != bufFlits {
					t.Fatalf("router %d input %d vc %d built with %d slots; want BufFlits = %d", r.cfg.ID, i, v, c, bufFlits)
				}
			}
		}
	}
	for _, f := range l.ifaces {
		for g := range f.eject {
			if c := f.eject[g].Cap(); c != f.BufFlits() {
				t.Fatalf("iface %d eject vc %d built with %d slots; want BufFlits = %d", f.cfg.Node, g, c, f.BufFlits())
			}
		}
	}
}
