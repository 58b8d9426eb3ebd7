// Package topotest provides shared conformance checks for topologies: every
// fabric must deliver every injected packet to the right node, conserve
// packets under saturation, and (when it claims in-order behaviour) never
// reorder a sender/receiver pair.
package topotest

import (
	"sort"
	"testing"

	"nifdy/internal/packet"
	"nifdy/internal/rng"
	"nifdy/internal/sim"
	"nifdy/internal/topo"
)

// Harness drives a Network with simple open-loop node pumps (no NIC, no
// protocol) for substrate-level testing. The pump is a registered Ticker
// with no Activity, so it runs every cycle and pins the engine to
// cycle-by-cycle stepping — the harness must never be skipped over by the
// engine's quiescence fast-forward, since its sends are invisible to the
// components' wake bookkeeping until injected.
type Harness struct {
	T   *testing.T
	Net topo.Network
	Eng *sim.Engine

	ids      packet.IDSource
	queues   [][]*packet.Packet // outgoing per node
	next     []int              // per-node cursor into queues
	driving  bool               // pump injects/collects only while Run is active
	received []*packet.Packet
	ByPair   map[[2]int][]*packet.Packet
}

// NewHarness registers the network's routers and the harness's own pump
// ticker (after the routers, like a NIC) and returns a harness.
func NewHarness(t *testing.T, net topo.Network) *Harness {
	h := &Harness{T: t, Net: net, Eng: sim.New(), ByPair: map[[2]int][]*packet.Packet{}}
	h.queues = make([][]*packet.Packet, net.Nodes())
	h.next = make([]int, net.Nodes())
	net.RegisterRoutersSharded(h.Eng, net.Partition(1))
	h.Eng.Register(sim.TickFunc(h.pump))
	return h
}

// pump is the per-cycle node driver: inject the next queued packet when the
// interface can accept it, and collect deliveries. Outside Run it is a
// no-op, so tests that step the engine by hand (e.g. lossy-fabric counts)
// keep sole control of their interfaces; its mere registration still pins
// the engine to cycle-by-cycle stepping.
func (h *Harness) pump(now sim.Cycle) {
	if !h.driving {
		return
	}
	for n := 0; n < h.Net.Nodes(); n++ {
		ifc := h.Net.Iface(n)
		ifc.Pump(now)
		if h.next[n] < len(h.queues[n]) {
			p := h.queues[n][h.next[n]]
			if ifc.CanAccept(p.Class) {
				ifc.StartSend(now, p)
				h.next[n]++
			}
		}
		for {
			p, got := ifc.Deliver(now, nil)
			if !got {
				break
			}
			if p.Dst != n {
				h.T.Errorf("packet %v delivered to node %d", p, n)
			}
			h.received = append(h.received, p)
			h.ByPair[[2]int{p.Src, p.Dst}] = append(h.ByPair[[2]int{p.Src, p.Dst}], p)
		}
	}
}

// Enqueue schedules a packet from src to dst with the given length.
func (h *Harness) Enqueue(src, dst, words int, class packet.Class) *packet.Packet {
	p := &packet.Packet{ID: h.ids.Next(), Src: src, Dst: dst, Words: int32(words),
		Class: class, Dialog: packet.NoDialog}
	p.Meta.Index = int32(len(h.queues[src]))
	h.queues[src] = append(h.queues[src], p)
	return p
}

// EnqueueRandom schedules n packets between uniformly random distinct pairs.
func (h *Harness) EnqueueRandom(n, words int, seed uint64) {
	r := rng.New(seed)
	N := h.Net.Nodes()
	for i := 0; i < n; i++ {
		src := r.Intn(N)
		dst := r.Intn(N - 1)
		if dst >= src {
			dst++
		}
		h.Enqueue(src, dst, words, packet.Request)
	}
}

// Run pumps until every enqueued packet is delivered or maxCycles elapse.
// It fails the test on timeout or misdelivery and returns received packets.
func (h *Harness) Run(maxCycles sim.Cycle) []*packet.Packet {
	h.T.Helper()
	want := 0
	for _, q := range h.queues {
		want += len(q)
	}
	h.driving = true
	ok := h.Eng.RunUntil(func() bool { return len(h.received) == want }, maxCycles)
	h.driving = false
	if !ok {
		h.T.Fatalf("delivered %d/%d packets in %d cycles (buffered flits: %d)",
			len(h.received), want, maxCycles, h.Net.BufferedFlits())
	}
	return h.received
}

// CheckDrained asserts no flits remain inside the fabric.
func (h *Harness) CheckDrained() {
	h.T.Helper()
	// Let in-flight credits and stragglers settle.
	h.Eng.Run(200)
	if n := h.Net.BufferedFlits(); n != 0 {
		h.T.Fatalf("%d flits stranded in fabric", n)
	}
}

// CheckPairOrder asserts every sender/receiver pair's packets arrived in
// Meta.Index order (valid when each pair's packets were enqueued in order).
func (h *Harness) CheckPairOrder() {
	h.T.Helper()
	// Sorted pair sweep: a reorder failure always names the same pair first.
	pairs := make([][2]int, 0, len(h.ByPair))
	//lint:allow(mapiter) key-collection for sorting; the sorted result is independent of iteration order
	for pair := range h.ByPair {
		pairs = append(pairs, pair)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	for _, pair := range pairs {
		ps := h.ByPair[pair]
		last := int32(-1)
		for _, p := range ps {
			if p.Meta.Index < last {
				h.T.Fatalf("pair %v reordered: index %d after %d", pair, p.Meta.Index, last)
			}
			last = p.Meta.Index
		}
	}
}

// AllPairs enqueues one packet for every ordered pair (a compact all-to-all).
func (h *Harness) AllPairs(words int) {
	N := h.Net.Nodes()
	for s := 0; s < N; s++ {
		for d := 0; d < N; d++ {
			if s != d {
				h.Enqueue(s, d, words, packet.Request)
			}
		}
	}
}
