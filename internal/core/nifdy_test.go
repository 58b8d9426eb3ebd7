package core

import (
	"testing"
	"testing/quick"

	"nifdy/internal/nic"
	"nifdy/internal/packet"
	"nifdy/internal/rng"
	"nifdy/internal/router"
	"nifdy/internal/sim"
	"nifdy/internal/topo"
	"nifdy/internal/topo/fattree"
	"nifdy/internal/topo/mesh"
)

// world drives NIFDY units over a real fabric with simple processor pumps:
// each node hands queued packets to its NIC in order and accepts arrivals
// every cycle (unless paused, to model unresponsive receivers).
type world struct {
	t    *testing.T
	eng  *sim.Engine
	net  topo.Network
	nics []nic.NIC
	ids  packet.IDSource

	sendQ  [][]*packet.Packet
	nextSQ []int
	recvd  [][]*packet.Packet
	paused []bool
	msgSeq uint64
}

func newWorld(t *testing.T, net topo.Network, mk func(n int, ifc router.Port) nic.NIC) *world {
	return newWorldOn(t, sim.New(), net, mk)
}

// newWorldOn is newWorld on a caller-supplied engine, for tests that must
// hand the engine to other machinery (e.g. a checker) before the NICs exist.
func newWorldOn(t *testing.T, eng *sim.Engine, net topo.Network, mk func(n int, ifc router.Port) nic.NIC) *world {
	w := &world{t: t, eng: eng, net: net}
	net.RegisterRouters(w.eng)
	n := net.Nodes()
	w.sendQ = make([][]*packet.Packet, n)
	w.nextSQ = make([]int, n)
	w.recvd = make([][]*packet.Packet, n)
	w.paused = make([]bool, n)
	for i := 0; i < n; i++ {
		w.nics = append(w.nics, mk(i, net.Iface(i)))
		w.eng.Register(w.nics[i])
	}
	return w
}

func nifdyWorld(t *testing.T, net topo.Network, cfg Config) *world {
	w := newWorld(t, net, func(n int, ifc router.Port) nic.NIC {
		c := cfg
		c.Node = n
		return New(c, ifc)
	})
	return w
}

// msg enqueues an npkts-packet message. When bulk is true the software layer
// sets the bulk-request bit on every packet except the last (§2.2; the last
// packet's missing request bit tells the NIFDY unit to set bulk-exit).
func (w *world) msg(src, dst, npkts, words int, bulk bool) []*packet.Packet {
	w.msgSeq++
	var ps []*packet.Packet
	for i := 0; i < npkts; i++ {
		p := &packet.Packet{
			ID: w.ids.Next(), Src: src, Dst: dst, Words: words,
			Class: packet.Request, Dialog: packet.NoDialog,
			BulkReq: bulk && i < npkts-1,
			Meta:    packet.Meta{MsgID: w.msgSeq, Index: i, Total: npkts},
		}
		ps = append(ps, p)
		w.sendQ[src] = append(w.sendQ[src], p)
	}
	return ps
}

func (w *world) pump() {
	now := w.eng.Now()
	for n := range w.nics {
		if i := w.nextSQ[n]; i < len(w.sendQ[n]) {
			if w.nics[n].TrySend(now, w.sendQ[n][i]) {
				w.nextSQ[n]++
			}
		}
		if w.paused[n] {
			continue
		}
		if p, ok := w.nics[n].Recv(now); ok {
			if p.Dst != n {
				w.t.Fatalf("node %d accepted packet %v", n, p)
			}
			w.recvd[n] = append(w.recvd[n], p)
		}
	}
}

func (w *world) totalQueued() int {
	total := 0
	for _, q := range w.sendQ {
		total += len(q)
	}
	return total
}

func (w *world) totalRecvd() int {
	total := 0
	for _, r := range w.recvd {
		total += len(r)
	}
	return total
}

// run pumps until every queued packet is accepted or maxCycles pass.
func (w *world) run(maxCycles sim.Cycle) {
	w.t.Helper()
	want := w.totalQueued()
	ok := w.eng.RunUntil(func() bool {
		w.pump()
		return w.totalRecvd() == want
	}, maxCycles)
	if !ok {
		w.t.Fatalf("accepted %d/%d packets in %d cycles", w.totalRecvd(), want, maxCycles)
	}
}

// checkPerPairOrder verifies in-order exactly-once delivery per sender at
// each receiver (packets from one sender arrive in global send order).
func (w *world) checkPerPairOrder() {
	w.t.Helper()
	for n, ps := range w.recvd {
		last := map[int]uint64{}
		seen := map[uint64]bool{}
		for _, p := range ps {
			if seen[p.ID] {
				w.t.Fatalf("node %d: packet %d delivered twice", n, p.ID)
			}
			seen[p.ID] = true
			key := p.Src
			order := p.Meta.MsgID*1000 + uint64(p.Meta.Index)
			if order < last[key] {
				w.t.Fatalf("node %d: out-of-order from %d: %v after order %d", n, key, p, last[key])
			}
			last[key] = order
		}
	}
}

func smallMesh(t *testing.T) topo.Network {
	return mesh.New(mesh.Config{Dims: []int{4, 4}})
}

func reorderingTree(seed uint64) topo.Network {
	return fattree.New(fattree.Config{Seed: seed})
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}
	c.defaults()
	if c.O != 8 || c.B != 8 || c.D != 1 || c.W != 4 || c.ArrBuf != 2 {
		t.Fatalf("defaults: %+v", c)
	}
	odd := Config{W: 5}
	odd.defaults()
	if odd.W != 6 {
		t.Fatalf("odd W not evened: %d", odd.W)
	}
	noBulk := Config{D: -1}
	noBulk.defaults()
	if noBulk.D != 0 {
		t.Fatalf("D=-1 should disable dialogs, got %d", noBulk.D)
	}
}

func TestTotalBuffers(t *testing.T) {
	if got := (Config{O: 4, B: 4, D: 1, W: 2}).TotalBuffers(); got != 4+2+2 {
		t.Fatalf("TotalBuffers = %d", got)
	}
	if got := (Config{}).TotalBuffers(); got != 8+2+4 {
		t.Fatalf("default TotalBuffers = %d", got)
	}
}

func TestScalarDelivery(t *testing.T) {
	w := nifdyWorld(t, smallMesh(t), Config{})
	w.msg(0, 15, 1, 8, false)
	w.run(10000)
	if len(w.recvd[15]) != 1 {
		t.Fatalf("recvd %d", len(w.recvd[15]))
	}
}

func TestScalarOneOutstandingPerDest(t *testing.T) {
	w := nifdyWorld(t, smallMesh(t), Config{})
	w.msg(0, 15, 20, 8, false)
	sender := w.nics[0].Stats()
	ok := w.eng.RunUntil(func() bool {
		w.pump()
		// Invariant: unacked scalar packets to the single destination <= 1.
		if out := sender.Injected - sender.AcksReceived; out > 1 {
			t.Fatalf("%d unacked scalar packets to one destination", out)
		}
		return w.totalRecvd() == 20
	}, 200000)
	if !ok {
		t.Fatalf("accepted %d/20", w.totalRecvd())
	}
}

func TestOPTBoundsGlobalOutstanding(t *testing.T) {
	w := nifdyWorld(t, smallMesh(t), Config{O: 2, B: 8})
	for d := 1; d <= 6; d++ {
		w.msg(0, d, 5, 8, false)
	}
	sender := w.nics[0].Stats()
	ok := w.eng.RunUntil(func() bool {
		w.pump()
		if out := sender.Injected - sender.AcksReceived; out > 2 {
			t.Fatalf("%d outstanding packets with O=2", out)
		}
		return w.totalRecvd() == 30
	}, 400000)
	if !ok {
		t.Fatalf("accepted %d/30", w.totalRecvd())
	}
}

func TestPoolCapacity(t *testing.T) {
	net := smallMesh(t)
	u := New(Config{B: 3}, net.Iface(0))
	for i := 0; i < 3; i++ {
		p := &packet.Packet{Src: 0, Dst: 1, Words: 8, Dialog: packet.NoDialog}
		if !u.TrySend(0, p) {
			t.Fatalf("TrySend %d rejected under capacity", i)
		}
	}
	if u.TrySend(0, &packet.Packet{Src: 0, Dst: 1, Words: 8, Dialog: packet.NoDialog}) {
		t.Fatal("TrySend accepted past pool capacity")
	}
}

func TestRankAssignment(t *testing.T) {
	net := smallMesh(t)
	u := New(Config{B: 8}, net.Iface(0))
	mk := func(dst int) *packet.Packet {
		return &packet.Packet{Src: 0, Dst: dst, Words: 8, Dialog: packet.NoDialog}
	}
	u.TrySend(0, mk(1))
	u.TrySend(0, mk(1))
	u.TrySend(0, mk(2))
	if u.pool[0].rank != 0 || u.pool[1].rank != 1 || u.pool[2].rank != 0 {
		t.Fatalf("ranks: %d %d %d", u.pool[0].rank, u.pool[1].rank, u.pool[2].rank)
	}
}

func TestPoolInterleavesDestinations(t *testing.T) {
	// Two streams: a long one to a far node queued first, then one to a near
	// node. Without the pool the near stream would wait behind the far one;
	// with rank/eligibility both proceed concurrently.
	w := nifdyWorld(t, smallMesh(t), Config{O: 4, B: 8})
	w.msg(0, 15, 10, 8, false)
	w.msg(0, 1, 10, 8, false)
	var firstFar, firstNear sim.Cycle = -1, -1
	ok := w.eng.RunUntil(func() bool {
		w.pump()
		if firstFar < 0 && len(w.recvd[15]) > 0 {
			firstFar = w.eng.Now()
		}
		if firstNear < 0 && len(w.recvd[1]) > 0 {
			firstNear = w.eng.Now()
		}
		return w.totalRecvd() == 20
	}, 400000)
	if !ok {
		t.Fatalf("accepted %d/20", w.totalRecvd())
	}
	// The near packet must arrive long before the far stream completes —
	// i.e. it was not head-of-line blocked behind all ten far packets.
	if firstNear > firstFar+2000 {
		t.Fatalf("near stream blocked: first near at %d, first far at %d", firstNear, firstFar)
	}
}

func TestInOrderDeliveryOverReorderingNetwork(t *testing.T) {
	// The headline property: on an adaptive fat tree that reorders packets,
	// NIFDY presents them to the processor in transmission order.
	w := nifdyWorld(t, reorderingTree(42), Config{W: 8})
	w.msg(0, 63, 24, 8, true)
	w.msg(5, 63, 24, 8, true)
	w.msg(0, 9, 12, 8, false)
	w.run(1000000)
	w.checkPerPairOrder()
}

func TestBulkDialogGrantAndUse(t *testing.T) {
	w := nifdyWorld(t, reorderingTree(7), Config{W: 4})
	w.msg(0, 63, 20, 8, true)
	w.run(500000)
	s := w.nics[63].Stats()
	if s.BulkGrants != 1 {
		t.Fatalf("grants = %d", s.BulkGrants)
	}
	if w.nics[0].Stats().BulkPackets == 0 {
		t.Fatal("no packets traveled in bulk mode")
	}
	w.checkPerPairOrder()
}

func TestBulkWindowBound(t *testing.T) {
	w := nifdyWorld(t, reorderingTree(8), Config{W: 4})
	w.msg(0, 63, 40, 8, true)
	u := w.nics[0].(*NIFDY)
	ok := w.eng.RunUntil(func() bool {
		w.pump()
		if u.dout.active {
			if out := u.dout.outstanding(); out > 4 {
				t.Fatalf("bulk outstanding %d > W=4", out)
			}
		}
		return w.totalRecvd() == 40
	}, 1000000)
	if !ok {
		t.Fatalf("accepted %d/40", w.totalRecvd())
	}
}

func TestDialogLimitRejectsSecondSender(t *testing.T) {
	w := nifdyWorld(t, reorderingTree(9), Config{D: 1, W: 4})
	w.msg(0, 63, 30, 8, true)
	w.msg(1, 63, 30, 8, true)
	w.run(2000000)
	s := w.nics[63].Stats()
	if s.BulkRejects == 0 {
		t.Fatal("second concurrent requester was never rejected (D=1)")
	}
	w.checkPerPairOrder()
}

func TestDialogFreedAfterExit(t *testing.T) {
	w := nifdyWorld(t, reorderingTree(10), Config{D: 1, W: 4})
	w.msg(0, 63, 10, 8, true)
	w.run(500000)
	// After message 1 finished, a second sender must be able to get the slot.
	w.msg(1, 63, 10, 8, true)
	w.run(500000)
	if g := w.nics[63].Stats().BulkGrants; g != 2 {
		t.Fatalf("grants = %d, want 2 (slot reused after exit)", g)
	}
	w.checkPerPairOrder()
}

func TestDialogsDisabled(t *testing.T) {
	w := nifdyWorld(t, reorderingTree(11), Config{D: -1})
	w.msg(0, 63, 15, 8, true) // requests bulk, but D=0 always rejects
	w.run(1000000)
	s := w.nics[63].Stats()
	if s.BulkGrants != 0 {
		t.Fatalf("grants = %d with dialogs disabled", s.BulkGrants)
	}
	w.checkPerPairOrder()
}

func TestSlowReceiverThrottlesSender(t *testing.T) {
	w := nifdyWorld(t, smallMesh(t), Config{})
	w.msg(0, 15, 10, 8, false)
	w.paused[15] = true
	sender := w.nics[0].Stats()
	for i := 0; i < 20000; i++ {
		w.pump()
		w.eng.Step()
	}
	// With the receiver ignoring the network, at most one scalar packet can
	// be outstanding; nothing is acked, so at most 1 injected... plus the
	// arrivals FIFO soaks nothing because acks come only on processor accept.
	if sender.AcksReceived != 0 {
		t.Fatalf("acks received while receiver paused: %d", sender.AcksReceived)
	}
	if sender.Injected > 1 {
		t.Fatalf("injected %d packets to an unresponsive receiver", sender.Injected)
	}
	w.paused[15] = false
	w.run(400000)
	w.checkPerPairOrder()
}

func TestAckOnArrivalStillDelivers(t *testing.T) {
	w := nifdyWorld(t, smallMesh(t), Config{AckOnArrival: true})
	w.msg(0, 15, 20, 8, false)
	w.msg(3, 12, 20, 8, false)
	w.run(400000)
	w.checkPerPairOrder()
}

func TestAckOnArrivalAllowsDeeperPipelining(t *testing.T) {
	// With ack-on-arrival the receiver's arrivals FIFO absorbs packets even
	// when the processor is paused, so more packets get injected than with
	// ack-on-accept (which injects at most 1).
	w := nifdyWorld(t, smallMesh(t), Config{AckOnArrival: true, ArrBuf: 2})
	w.msg(0, 15, 10, 8, false)
	w.paused[15] = true
	sender := w.nics[0].Stats()
	for i := 0; i < 20000; i++ {
		w.pump()
		w.eng.Step()
	}
	if sender.Injected < 2 {
		t.Fatalf("ack-on-arrival injected only %d", sender.Injected)
	}
	w.paused[15] = false
	w.run(200000)
}

func TestNoAckBypass(t *testing.T) {
	net := smallMesh(t)
	w := nifdyWorld(t, net, Config{})
	for i := 0; i < 10; i++ {
		ps := w.msg(0, 15, 1, 8, false)
		ps[0].NoAck = true
	}
	w.run(100000)
	if got := w.nics[15].Stats().AcksSent; got != 0 {
		t.Fatalf("receiver sent %d acks for no-ack packets", got)
	}
	if got := w.nics[0].Stats().AcksReceived; got != 0 {
		t.Fatalf("sender got %d acks for no-ack packets", got)
	}
}

func TestPiggybackReducesAckPackets(t *testing.T) {
	// Request-reply traffic, the case §6.1 targets: node 15's application
	// generates a reply to node 0 for every request it accepts, so a data
	// packet heading back exists while the request's ack is pending.
	const nreq = 15
	run := func(piggy bool) (acksOnWire, accepted int64) {
		net := smallMesh(t)
		w := nifdyWorld(t, net, Config{Piggyback: piggy})
		for i := 0; i < nreq; i++ {
			w.msg(0, 15, 1, 8, false)
		}
		replies := 0
		got := 0
		ok := w.eng.RunUntil(func() bool {
			now := w.eng.Now()
			if i := w.nextSQ[0]; i < len(w.sendQ[0]) {
				if w.nics[0].TrySend(now, w.sendQ[0][i]) {
					w.nextSQ[0]++
				}
			}
			if p, k := w.nics[15].Recv(now); k {
				// Application reply on the reply network.
				replies++
				r := &packet.Packet{ID: w.ids.Next(), Src: 15, Dst: 0, Words: 8,
					Class: packet.Reply, Dialog: packet.NoDialog,
					Meta: packet.Meta{MsgID: p.Meta.MsgID + 1000, Index: 0, Total: 1}}
				if !w.nics[15].TrySend(now, r) {
					t.Fatal("reply pool full")
				}
			}
			if _, k := w.nics[0].Recv(now); k {
				got++
			}
			return got == nreq
		}, 400000)
		if !ok {
			t.Fatalf("got %d/%d replies", got, nreq)
		}
		// Let straggler acks drain, then count wire packets.
		w.eng.Run(2000)
		inj0, _, _ := net.Iface(0).Stats()
		inj15, _, _ := net.Iface(15).Stats()
		return inj0 + inj15 - 2*nreq, int64(got)
	}
	plain, _ := run(false)
	piggy, _ := run(true)
	if piggy >= plain {
		t.Fatalf("piggybacking did not reduce wire acks: %d vs %d", piggy, plain)
	}
}

func TestRetransmitOverLossyNetwork(t *testing.T) {
	net := mesh.New(mesh.Config{Dims: []int{4, 4},
		Iface: topo.IfaceOptions{DropProb: 0.15, Seed: 77}})
	w := nifdyWorld(t, net, Config{Retransmit: true, RetransmitTimeout: 2000})
	w.msg(0, 15, 20, 8, false)
	w.msg(5, 10, 20, 8, false)
	w.run(4000000)
	w.checkPerPairOrder()
	var retx int64
	for _, n := range w.nics {
		retx += n.Stats().Retransmits
	}
	if retx == 0 {
		t.Fatal("no retransmissions at 15% loss")
	}
}

func TestRetransmitBulkOverLossyNetwork(t *testing.T) {
	net := fattree.New(fattree.Config{Seed: 13,
		Iface: topo.IfaceOptions{DropProb: 0.1, Seed: 78}})
	w := nifdyWorld(t, net, Config{Retransmit: true, RetransmitTimeout: 3000, W: 4})
	w.msg(0, 63, 30, 8, true)
	w.run(8000000)
	w.checkPerPairOrder()
}

func TestPerPacketBulkAcks(t *testing.T) {
	w := nifdyWorld(t, reorderingTree(14), Config{W: 4, PerPacketBulkAcks: true})
	w.msg(0, 63, 20, 8, true)
	w.run(500000)
	w.checkPerPairOrder()
	// Per-packet acks: roughly one ack per bulk packet rather than per W/2.
	if acks := w.nics[63].Stats().AcksSent; acks < 15 {
		t.Fatalf("per-packet bulk acks sent only %d acks for 20 packets", acks)
	}
}

func TestCombinedAcksAreFewer(t *testing.T) {
	count := func(perPacket bool) int64 {
		w := nifdyWorld(t, reorderingTree(15), Config{W: 8, PerPacketBulkAcks: perPacket})
		w.msg(0, 63, 32, 8, true)
		w.run(1000000)
		return w.nics[63].Stats().AcksSent
	}
	combined, per := count(false), count(true)
	if combined >= per {
		t.Fatalf("combined acks (%d) not fewer than per-packet (%d)", combined, per)
	}
}

func TestIdleAfterDrain(t *testing.T) {
	w := nifdyWorld(t, smallMesh(t), Config{})
	w.msg(0, 15, 5, 8, false)
	w.run(100000)
	w.eng.RunUntil(func() bool {
		w.pump()
		for _, n := range w.nics {
			if !n.Idle() {
				return false
			}
		}
		return true
	}, 10000)
	for i, n := range w.nics {
		if !n.Idle() {
			t.Fatalf("nic %d not idle after drain", i)
		}
	}
}

func TestManyToOneConvergecast(t *testing.T) {
	// Every node sends to node 0: the end-point congestion scenario. NIFDY
	// must deliver everything without deadlock and without the fabric
	// wedging.
	w := nifdyWorld(t, smallMesh(t), Config{})
	for s := 1; s < 16; s++ {
		w.msg(s, 0, 8, 8, false)
	}
	w.run(2000000)
	w.checkPerPairOrder()
	if len(w.recvd[0]) != 15*8 {
		t.Fatalf("recvd %d", len(w.recvd[0]))
	}
}

func TestRandomTrafficProperty(t *testing.T) {
	// Property: arbitrary message mixes over a reordering fabric are
	// delivered exactly once, in order per pair.
	f := func(seed uint64, pattern []uint8) bool {
		if len(pattern) > 12 {
			pattern = pattern[:12]
		}
		w := nifdyWorld(t, reorderingTree(seed), Config{W: 4})
		r := rng.New(seed)
		for _, b := range pattern {
			src := r.Intn(64)
			dst := r.Intn(63)
			if dst >= src {
				dst++
			}
			n := int(b%10) + 1
			w.msg(src, dst, n, 8, n > 4)
		}
		want := w.totalQueued()
		done := w.eng.RunUntil(func() bool {
			w.pump()
			return w.totalRecvd() == want
		}, 2000000)
		if !done {
			return false
		}
		for n, ps := range w.recvd {
			last := map[int]uint64{}
			for _, p := range ps {
				order := p.Meta.MsgID*1000 + uint64(p.Meta.Index)
				if order < last[p.Src] {
					t.Logf("node %d reorder from %d", n, p.Src)
					return false
				}
				last[p.Src] = order
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestGrantIdempotentForSameSource(t *testing.T) {
	net := smallMesh(t)
	u := New(Config{D: 2}, net.Iface(0))
	g1, d1 := u.decideGrant(0, 5)
	g2, d2 := u.decideGrant(0, 5)
	if g1 != packet.Granted || g2 != packet.Granted || d1 != d2 {
		t.Fatalf("grants: %v/%d then %v/%d", g1, d1, g2, d2)
	}
	g3, d3 := u.decideGrant(0, 6)
	if g3 != packet.Granted || d3 == d1 {
		t.Fatalf("second source got %v/%d", g3, d3)
	}
	if g4, _ := u.decideGrant(0, 7); g4 != packet.Rejected {
		t.Fatalf("third source got %v with D=2", g4)
	}
}

func TestAutoBulkRequestsDialog(t *testing.T) {
	// Footnote 3 extension: the software never sets the request bit, yet a
	// backlog to one destination makes the NIC open a dialog on its own.
	w := nifdyWorld(t, reorderingTree(21), Config{AutoBulk: 3, W: 4})
	w.msg(0, 63, 24, 8, false) // plain packets, no BulkReq
	w.run(1000000)
	w.checkPerPairOrder()
	if g := w.nics[63].Stats().BulkGrants; g == 0 {
		t.Fatal("auto-bulk never opened a dialog")
	}
	if w.nics[0].Stats().BulkPackets == 0 {
		t.Fatal("no packets traveled in bulk mode")
	}
}

func TestAutoBulkClosesWhenBacklogDrains(t *testing.T) {
	w := nifdyWorld(t, reorderingTree(22), Config{AutoBulk: 3, W: 4, D: 1})
	w.msg(0, 63, 12, 8, false)
	w.run(500000)
	// After the backlog drained the dialog must close, freeing the slot
	// for another sender.
	w.msg(1, 63, 12, 8, false)
	w.run(500000)
	if g := w.nics[63].Stats().BulkGrants; g < 2 {
		t.Fatalf("grants = %d, want 2 (dialog reused)", g)
	}
	w.checkPerPairOrder()
}

func TestAutoBulkOffByDefault(t *testing.T) {
	w := nifdyWorld(t, reorderingTree(23), Config{W: 4})
	w.msg(0, 63, 12, 8, false) // no BulkReq, no AutoBulk
	w.run(500000)
	if g := w.nics[63].Stats().BulkGrants; g != 0 {
		t.Fatalf("grants = %d without requests or auto-bulk", g)
	}
}

func TestDialogTakeoverEvictsIdleDialog(t *testing.T) {
	// Sender 0 holds the only dialog open forever (every packet keeps the
	// request bit set, so the NIC never emits bulk-exit). After the idle
	// threshold, sender 1's request must take the slot over.
	w := nifdyWorld(t, reorderingTree(31), Config{D: 1, W: 4, DialogTakeover: 600})
	ps := w.msg(0, 63, 10, 8, true)
	ps[len(ps)-1].BulkReq = true // never exit: dialog stays open
	w.run(500000)
	w.msg(1, 63, 10, 8, true)
	w.run(2000000)
	w.checkPerPairOrder()
	s := w.nics[63].Stats()
	if s.BulkGrants < 2 {
		t.Fatalf("grants = %d: takeover never happened", s.BulkGrants)
	}
}

func TestDialogTakeoverSenderRevertsToScalar(t *testing.T) {
	// After its dialog is torn down, the old sender's further traffic to
	// the same destination must still arrive exactly once, in order.
	w := nifdyWorld(t, reorderingTree(32), Config{D: 1, W: 4, DialogTakeover: 3000})
	ps := w.msg(0, 63, 8, 8, true)
	ps[len(ps)-1].BulkReq = true // hold the dialog open
	w.run(500000)
	w.msg(1, 63, 8, 8, true) // takes the slot over
	w.run(2000000)
	w.msg(0, 63, 8, 8, false) // old sender continues in scalar mode
	w.run(2000000)
	w.checkPerPairOrder()
	if got := len(w.recvd[63]); got != 24 {
		t.Fatalf("recvd %d/24", got)
	}
}

func TestDialogTakeoverRaceReissuesInFlight(t *testing.T) {
	// Adversarial timing: a tiny takeover threshold so the dialog can be
	// torn down while window packets are still in flight. Exactly-once
	// in-order delivery must survive the race via scalar reissue.
	w := nifdyWorld(t, reorderingTree(33), Config{D: 1, W: 8, DialogTakeover: 200})
	w.msg(0, 63, 40, 8, true)
	w.msg(1, 63, 40, 8, true)
	w.msg(2, 63, 40, 8, true)
	w.run(4000000)
	w.checkPerPairOrder()
	if got := len(w.recvd[63]); got != 120 {
		t.Fatalf("recvd %d/120", got)
	}
}

func TestPiggybackExpiresToStandaloneAck(t *testing.T) {
	// With piggybacking on but no reverse traffic ever, held acks must go
	// out standalone after the delay, or the sender would stall forever.
	w := nifdyWorld(t, smallMesh(t), Config{Piggyback: true, PiggybackDelay: 100})
	w.msg(0, 15, 5, 8, false)
	w.run(100000)
	// The final ack is still inside its piggyback hold when the last packet
	// is accepted; give it time to expire and go out standalone.
	w.eng.Run(2000)
	if got := w.nics[15].Stats().AcksSent; got != 5 {
		t.Fatalf("acks sent = %d, want 5 standalone", got)
	}
}

func TestRetransmitTimerRearms(t *testing.T) {
	// Destination 15 never polls: the scalar packet is delivered to the
	// iface but never accepted, so no ack comes and the timer must fire
	// repeatedly.
	w := nifdyWorld(t, smallMesh(t), Config{Retransmit: true, RetransmitTimeout: 500})
	w.msg(0, 15, 1, 8, false)
	w.paused[15] = true
	for i := 0; i < 5000; i++ {
		w.pump()
		w.eng.Step()
	}
	if retx := w.nics[0].Stats().Retransmits; retx < 2 {
		t.Fatalf("retransmits = %d, want >= 2 (timer must rearm)", retx)
	}
	// Duplicates pile up at the receiver NIC side only after acceptance;
	// resume and confirm exactly-once delivery to the processor.
	w.paused[15] = false
	w.run(200000)
	w.checkPerPairOrder()
	if got := len(w.recvd[15]); got != 1 {
		t.Fatalf("accepted %d copies", got)
	}
}

func TestTakeoverUnderLossProperty(t *testing.T) {
	// The harshest combination: lossy fabric + retransmission + dialog
	// takeover + auto-bulk, random messages. Exactly-once in-order delivery
	// must survive all interactions.
	net := fattree.New(fattree.Config{Seed: 41,
		Iface: topo.IfaceOptions{DropProb: 0.05, Seed: 42}})
	w := nifdyWorld(t, net, Config{
		W: 4, D: 1, AutoBulk: 3, DialogTakeover: 2000,
		Retransmit: true, RetransmitTimeout: 2500,
	})
	r := rng.New(43)
	for m := 0; m < 12; m++ {
		src := r.Intn(64)
		dst := r.Intn(63)
		if dst >= src {
			dst++
		}
		w.msg(src, dst, r.IntRange(1, 8), 8, false)
	}
	w.run(8000000)
	w.checkPerPairOrder()
}

func TestIdleBranches(t *testing.T) {
	net := smallMesh(t)
	u := New(Config{}, net.Iface(0))
	if !u.Idle() {
		t.Fatal("fresh unit not idle")
	}
	u.TrySend(0, &packet.Packet{Src: 0, Dst: 1, Words: 8, Dialog: packet.NoDialog})
	if u.Idle() {
		t.Fatal("unit with pooled packet reports idle")
	}
}

// TestRoomEdgeWakesProc is the second half of nic.NIC's ObserveProc contract
// for the NIFDY unit: fill the pool until TrySend is refused, step until an
// entry leaves it, and the observing activity must have been woken by the
// Tick of that very cycle — and be untouched until then. All packets go to one
// destination, so after the first round every entry waits out a full scalar
// round trip (the receiver accepts as fast as it can) before the pool opens.
func TestRoomEdgeWakesProc(t *testing.T) {
	w := nifdyWorld(t, smallMesh(t), Config{B: 2})
	u := w.nics[0].(*NIFDY)
	var proc sim.Activity
	u.ObserveProc(&proc)
	for round := 0; round < 4; round++ {
		for u.TrySend(w.eng.Now(), w.msg(0, 15, 1, 8, false)[0]) {
		}
		if len(u.pool) < 2 {
			t.Fatal("TrySend refused with room in the pool")
		}
		proc.Sleep(sim.Never)
		for len(u.pool) >= 2 {
			if !proc.Asleep(w.eng.Now()) {
				t.Fatalf("round %d: processor woken at cycle %d with the pool still full", round, w.eng.Now()-1)
			}
			if w.eng.Now() > 100000 {
				t.Fatalf("round %d: the pool never drained", round)
			}
			w.eng.Step()
			w.nics[15].Recv(w.eng.Now())
		}
		if proc.Asleep(w.eng.Now() - 1) {
			t.Fatalf("round %d: room freed in cycle %d and the processor was not woken in it", round, w.eng.Now()-1)
		}
	}
}
