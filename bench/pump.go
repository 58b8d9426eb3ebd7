package main

import (
	"nifdy/internal/packet"
	"nifdy/internal/rng"
	"nifdy/internal/router"
	"nifdy/internal/sim"
)

// pump drives one node's router.Port from inside the engine with no NIC and
// no processor: it recycles every delivered packet into a fixed pool and
// keeps the injection slot busy with uniform 8-word packets while the pool
// lasts. It is the benchmark's own load generator for flow_scale and for the
// router rig, so neither depends on harness.ScaleBench's private injector.
type pump struct {
	pt          router.Port
	node, nodes int
	r           *rng.Source
	ids         *packet.IDSource
	// pool is a ring of recyclable packets; a delivery refills the receiver's
	// pool, and a full pool forgets the reference, so nothing allocates after
	// build.
	pool      []*packet.Packet
	head, cnt int
	sent      int64
	delivered int64
}

const pumpPool = 4

// newPumps builds one pump per port, all backed by one packet slab.
func newPumps(ports func(n int) router.Port, nodes int, seed uint64) []pump {
	pumps := make([]pump, nodes)
	pkts := make([]packet.Packet, nodes*pumpPool)
	for n := range pumps {
		p := &pumps[n]
		p.pt = ports(n)
		p.node, p.nodes = n, nodes
		p.r = rng.NewStream(seed^0xBE7C4, uint64(n))
		p.ids = packet.NewNodeIDs(n)
		p.pool = make([]*packet.Packet, pumpPool)
		p.cnt = pumpPool
		for i := range p.pool {
			p.pool[i] = &pkts[n*pumpPool+i]
		}
	}
	return pumps
}

func (p *pump) Tick(now sim.Cycle) {
	progress := p.pt.Pump(now)
	for {
		pk, ok := p.pt.Deliver(now, nil)
		if !ok {
			break
		}
		p.delivered++
		if p.cnt < len(p.pool) {
			p.pool[(p.head+p.cnt)%len(p.pool)] = pk
			p.cnt++
		}
		progress = true
	}
	for p.cnt > 0 && p.pt.CanAccept(packet.Request) {
		pk := p.pool[p.head]
		p.head = (p.head + 1) % len(p.pool)
		p.cnt--
		dst := p.r.Intn(p.nodes - 1)
		if dst >= p.node {
			dst++
		}
		*pk = packet.Packet{ID: p.ids.Next(), Src: p.node, Dst: dst,
			Words: 8, Class: packet.Request, Kind: packet.Data}
		p.pt.StartSend(now, pk)
		p.sent++
		progress = true
	}
	// The NIC idle contract (router.Port): sleep to the next arrival when
	// quiescent, to BlockedBound when holding work but stuck.
	if p.pt.Quiet() {
		p.pt.Activity().Sleep(p.pt.NextArrivalAt())
	} else if !progress {
		p.pt.Activity().Sleep(p.pt.BlockedBound(now))
	}
}

func (p *pump) Activity() *sim.Activity { return p.pt.Activity() }
