package router

import (
	"strings"
	"testing"

	"nifdy/internal/packet"
	"nifdy/internal/sim"
)

// TestSAFBufferTooSmallPanics: a store-and-forward router whose buffers
// cannot hold a whole packet must fail loudly rather than wedge silently.
func TestSAFBufferTooSmallPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic for SAF buffer smaller than packet")
		}
		if !strings.Contains(r.(string), "SAF buffer") {
			t.Fatalf("wrong panic: %v", r)
		}
	}()
	eng := sim.New()
	rt := New(Config{ID: 0, InPorts: 1, OutPorts: 1, VCs: 1, BufFlits: 4, SAF: true,
		Route: func(in int, p *packet.Packet, s []Choice) []Choice {
			return append(s, Choice{Port: 0})
		}})
	src := NewIface(IfaceConfig{Node: 0, VCs: 1, BufFlits: 16})
	in := NewChannel(1, 1)
	src.ConnectOut(in, 4)
	rt.ConnectIn(0, in)
	sink := NewIface(IfaceConfig{Node: 1, VCs: 1, BufFlits: 16})
	out := NewChannel(1, 1)
	rt.ConnectOut(0, out, sink.BufFlits())
	sink.ConnectIn(out)
	eng.Register(src)
	eng.Register(rt)
	eng.Register(sink)
	// 8-flit packet into 4-flit SAF buffers: must panic during the run.
	src.StartSend(0, &packet.Packet{ID: 1, Src: 0, Dst: 1, Words: 8, Dialog: packet.NoDialog})
	eng.Run(200)
}

// TestIfaceEjectOverflowPanics: violating the iface credit contract (a
// packet larger than the eject buffer) is a loud failure.
func TestIfaceEjectOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on eject overflow")
		}
	}()
	f := NewIface(IfaceConfig{Node: 0, VCs: 1, BufFlits: 2})
	ch := NewChannel(1, 1)
	f.ConnectIn(ch)
	p := &packet.Packet{ID: 1, Src: 0, Dst: 0, Words: 4, Dialog: packet.NoDialog}
	now := sim.Cycle(0)
	for i := 0; i < 4; i++ {
		for !ch.Flits.CanSend(now) {
			now++
		}
		ch.Flits.Send(now, packet.Flit{Pkt: p, Index: i, VC: 0})
		now++
	}
	for c := sim.Cycle(0); c < now+10; c++ {
		f.Tick(c)
	}
}

// TestStartSendWhileBusyPanics: the iface's one-packet-per-class contract.
func TestStartSendWhileBusyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on double StartSend")
		}
	}()
	f := NewIface(IfaceConfig{Node: 0, VCs: 1, BufFlits: 8})
	ch := NewChannel(4, 1)
	f.ConnectOut(ch, 8)
	p1 := &packet.Packet{ID: 1, Src: 0, Dst: 1, Words: 8, Dialog: packet.NoDialog}
	p2 := &packet.Packet{ID: 2, Src: 0, Dst: 1, Words: 8, Dialog: packet.NoDialog}
	f.StartSend(0, p1)
	f.StartSend(0, p2)
}

// TestPerClassChannels: with separate physical channels per class (the CM-5
// wiring), both classes transfer concurrently at full per-channel rate.
func TestPerClassChannels(t *testing.T) {
	eng := sim.New()
	src := NewIface(IfaceConfig{Node: 0, VCs: 1, BufFlits: 16})
	dst := NewIface(IfaceConfig{Node: 1, VCs: 1, BufFlits: 16})
	for c := 0; c < packet.NumClasses; c++ {
		ch := NewChannel(4, 1)
		src.ConnectOutClass(packet.Class(c), ch, 16)
		dst.ConnectInClass(packet.Class(c), ch)
	}
	eng.Register(src)
	eng.Register(dst)
	p1 := &packet.Packet{ID: 1, Src: 0, Dst: 1, Words: 8, Class: packet.Request, Dialog: packet.NoDialog}
	p2 := &packet.Packet{ID: 2, Src: 0, Dst: 1, Words: 8, Class: packet.Reply, Dialog: packet.NoDialog}
	src.StartSend(0, p1)
	src.StartSend(0, p2)
	got := 0
	eng.RunUntil(func() bool {
		for {
			if _, ok := dst.Deliver(eng.Now(), nil); !ok {
				break
			}
			got++
		}
		return got == 2
	}, 1000)
	if got != 2 {
		t.Fatalf("delivered %d/2", got)
	}
	// Independent channels: both packets finish at nearly the same time —
	// within one flit of each other, not serialized one after the other.
	if d := p2.DeliveredAt - p1.DeliveredAt; d < -8 || d > 8 {
		t.Fatalf("classes serialized: delivered at %d and %d", p1.DeliveredAt, p2.DeliveredAt)
	}
}

// TestSharedChannelSerializesClasses: the demand-multiplexed baseline for
// comparison with the test above.
func TestSharedChannelSerializesClasses(t *testing.T) {
	eng := sim.New()
	src := NewIface(IfaceConfig{Node: 0, VCs: 1, BufFlits: 16})
	dst := NewIface(IfaceConfig{Node: 1, VCs: 1, BufFlits: 16})
	ch := NewChannel(4, 1)
	src.ConnectOut(ch, 16)
	dst.ConnectIn(ch)
	eng.Register(src)
	eng.Register(dst)
	p1 := &packet.Packet{ID: 1, Src: 0, Dst: 1, Words: 8, Class: packet.Request, Dialog: packet.NoDialog}
	p2 := &packet.Packet{ID: 2, Src: 0, Dst: 1, Words: 8, Class: packet.Reply, Dialog: packet.NoDialog}
	src.StartSend(0, p1)
	src.StartSend(0, p2)
	got := 0
	eng.RunUntil(func() bool {
		for {
			if _, ok := dst.Deliver(eng.Now(), nil); !ok {
				break
			}
			got++
		}
		return got == 2
	}, 1000)
	if got != 2 {
		t.Fatalf("delivered %d/2", got)
	}
	// 16 flits over one 4-cycle link: the pair needs >= 64 cycles total.
	last := p1.DeliveredAt
	if p2.DeliveredAt > last {
		last = p2.DeliveredAt
	}
	if last < 64 {
		t.Fatalf("16 flits finished at %d on a shared 4-cycle link", last)
	}
}

// TestRouterUnconnectedPortsIgnored: routers at fabric edges have dangling
// ports; ticking them must be safe.
func TestRouterUnconnectedPortsIgnored(t *testing.T) {
	rt := New(Config{ID: 0, InPorts: 3, OutPorts: 3, VCs: 1, BufFlits: 2,
		Route: func(in int, p *packet.Packet, s []Choice) []Choice {
			return append(s, Choice{Port: 0})
		}})
	for i := 0; i < 100; i++ {
		rt.Tick(sim.Cycle(i)) // no panic, nothing to do
	}
	if rt.BufferedFlits() != 0 {
		t.Fatal("phantom flits")
	}
}

// TestTooManyOutPortsPanics: the request mask is one word.
func TestTooManyOutPortsPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "request mask") {
			t.Fatalf("New with 65 output ports: recovered %v, want the request-mask panic", r)
		}
	}()
	New(Config{InPorts: 1, OutPorts: maxOutPorts + 1, VCs: 1, BufFlits: 1})
}

// TestAuditPolicesCaches: Audit panics when the request mask, a word of the
// arrival board or a word of the free board disagrees with the state it
// caches.
func TestAuditPolicesCaches(t *testing.T) {
	build := func() *Router {
		rt := New(Config{ID: 0, InPorts: 1, OutPorts: 1, VCs: 1, BufFlits: 4,
			Route: func(in int, p *packet.Packet, s []Choice) []Choice {
				return append(s, Choice{Port: 0})
			}})
		in, out := NewChannel(1, 1), NewChannel(1, 1)
		rt.ConnectIn(0, in)
		rt.ConnectOut(0, out, 4)
		p := &packet.Packet{ID: 1, Src: 0, Dst: 1, Words: 2, Dialog: packet.NoDialog}
		in.Flits.Send(0, packet.Flit{Pkt: p, Index: 0})
		rt.Tick(1) // head buffered, routed and forwarded; the tail is still to come
		rt.Audit(Auditor{})
		return rt
	}
	mustPanic := func(name, want string, corrupt func(*Router)) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(r.(string), want) {
				t.Errorf("%s: recovered %v, want a panic naming %q", name, r, want)
			}
		}()
		rt := build()
		corrupt(rt)
		rt.Audit(Auditor{})
	}
	mustPanic("cleared request bit", "reqMask", func(rt *Router) { rt.reqMask = 0 })
	mustPanic("stray request bit", "reqMask", func(rt *Router) { rt.out[0].reqs = rt.out[0].reqs[:0] })
	mustPanic("stale board word", "arrival board", func(rt *Router) { rt.arrive[0] = 5 })
	mustPanic("stale free word", "free board", func(rt *Router) { rt.free[0] = 0 })
	mustPanic("missed credit arrival", "arrival board", func(rt *Router) {
		rt.out[0].ch.Credits.Send(1, Credit{})
		rt.arrive[1] = sim.Never
	})
}
