package dist

import (
	"fmt"

	"nifdy/internal/link"
	"nifdy/internal/node"
	"nifdy/internal/packet"
	"nifdy/internal/router"
	"nifdy/internal/sim"
	"nifdy/internal/stats"
	"nifdy/internal/topo"
)

// Exchange is a worker process's sim.WindowSync: at every window boundary it
// frames the window's staged cross-process events, barrier-arrival deltas,
// and pending-count deltas for each peer, sends all frames asynchronously,
// then reads one frame from every peer in ascending rank order and replays
// its contents. All-sends-before-any-read keeps the full mesh deadlock-free;
// the fixed merge order keeps it deterministic.
//
// Every worker runs the identical boundary sequence — same window lattice,
// same hook clocks, same Run budgets (the launcher drives all workers through
// the same chunk schedule) — so frames pair up one-to-one; the (Seq,
// Boundary) header is verified on receipt and any mismatch panics rather
// than silently desynchronizing.
type Exchange struct {
	eng *sim.Engine
	w   *Worker
	lo  int // first owned shard: the staging shard for deferred barrier releases

	seq  uint64
	out  []windowFrame // per peer rank; the self entry is unused
	encs []enc         // per peer encode buffers, stable until waitSent
	in   windowFrame   // reusable decode target

	// inFlits and inCredits map cross-edge IDs (topo.MarkCross enumeration
	// order, identical in every worker) to this process's ingress wires.
	inFlits   map[int]*flitIngress
	inCredits map[int]*link.Wire[router.Credit]

	// bars holds every simulation barrier in creation order (the shared ID
	// space); arrived accumulates each barrier's global arrival count from
	// local and peer deltas — identical in every worker at every boundary.
	bars    []*node.Barrier
	arrived []int

	pend *stats.Pending
}

// flitIngress is the receiving side of one cross-process flit channel: the
// local wire events are replayed into, plus the per-VC in-flight packet used
// to rebuild flit->packet pointers. Head flits carry the packet body; body
// flits resolve to their VC's current packet — wormhole VC allocation holds a
// virtual channel from head to tail, so one VC never interleaves two packets
// (packet IDs alone would not do: a NIFDY control packet can reuse its data
// packet's ID and overtake it on a sibling VC of the same channel).
type flitIngress struct {
	l   *link.Link[packet.Flit]
	cur map[int]*packet.Packet
}

// NewExchange returns the synchronizer for worker w driving engine eng.
// Install it with eng.SetWindowSync and eng.SetCrossHook(x.CrossHook(...))
// before registering the topology.
func NewExchange(eng *sim.Engine, w *Worker) *Exchange {
	lo, _ := eng.Owned()
	return &Exchange{
		eng:       eng,
		w:         w,
		lo:        lo,
		out:       make([]windowFrame, w.Procs),
		encs:      make([]enc, w.Procs),
		inFlits:   map[int]*flitIngress{},
		inCredits: map[int]*link.Wire[router.Credit]{},
	}
}

// flitSink ships one egress flit channel's staged events into the consumer
// process's frame. Head flits (Index 0) carry the packet body so the
// receiver can materialize its own copy; body flits carry only the ID.
type flitSink struct {
	x    *Exchange
	peer int
	edge int
}

func (s flitSink) Ship(at sim.Cycle, f packet.Flit) {
	fe := flitEvent{Edge: s.edge, At: at, VC: f.VC, Index: f.Index, PktID: f.Pkt.ID}
	if f.Index == 0 {
		fe.HasPkt = true
		fe.Pkt = *f.Pkt
	}
	out := &s.x.out[s.peer]
	out.Flits = append(out.Flits, fe)
}

// creditSink ships one egress credit wire's staged events into the writer
// process's frame.
type creditSink struct {
	x    *Exchange
	peer int
	edge int
}

func (s creditSink) Ship(at sim.Cycle, c router.Credit) {
	out := &s.x.out[s.peer]
	out.Credits = append(out.Credits, creditEvent{Edge: s.edge, At: at, VC: c.VC})
}

// CrossHook returns the topo.CrossHook claiming process-crossing channels.
// rankOf maps a shard to the worker rank owning it (identical in every
// process). Channels crossing shards within this process are left to the
// default in-process marking; channels with a remote endpoint get their
// local egress side wired to a frame sink and their local ingress side
// registered for event replay; channels touching no owned shard are claimed
// as no-ops (both endpoints' tickers were dropped, so the wires stay silent).
func (x *Exchange) CrossHook(rankOf func(sh int) int) topo.CrossHook {
	me := x.w.Rank
	return func(edge int, ch *router.Channel, ws, cs int) bool {
		wr, cr := rankOf(ws), rankOf(cs)
		if wr == me && cr == me {
			return false
		}
		if wr == me {
			// Flits egress to the consumer's process; credits come back.
			ch.Flits.CrossShard(x.eng.CrossFlusher(ws))
			ch.Flits.SetRemote(flitSink{x, cr, edge})
			x.inCredits[edge] = &ch.Credits
		} else if cr == me {
			// Flits arrive from the writer's process; credits egress back.
			ch.Credits.CrossShard(x.eng.CrossFlusher(cs))
			ch.Credits.SetRemote(creditSink{x, wr, edge})
			x.inFlits[edge] = &flitIngress{l: &ch.Flits, cur: map[int]*packet.Packet{}}
		}
		return true
	}
}

// ObserveBarrier registers b into the shared creation-order ID space and
// switches it to distributed completion. Install with node.SetBarrierObserver
// around the simulation build; creation order is identical in every worker,
// so IDs agree without any wire-level negotiation.
func (x *Exchange) ObserveBarrier(b *node.Barrier) {
	b.SetDistributed()
	x.bars = append(x.bars, b)
	x.arrived = append(x.arrived, 0)
}

// BindPending attaches the pending-packet tracker whose per-window deltas are
// exchanged so every worker holds the global counts (p must have deltas
// enabled before its hooks are handed out).
func (x *Exchange) BindPending(p *stats.Pending) { x.pend = p }

// AtBoundary implements sim.WindowSync. See the Exchange doc for the
// protocol; the returned globalIdle is next itself when any process ticked
// (no jump), otherwise the minimum wake across all processes.
func (x *Exchange) AtBoundary(next sim.Cycle, localDone, ticked bool, idle sim.Cycle) (bool, sim.Cycle) {
	me := x.w.Rank
	for r := range x.out {
		if r == me {
			continue
		}
		f := &x.out[r]
		f.Seq, f.Boundary, f.Ticked, f.Done, f.Idle = x.seq, next, ticked, localDone, idle
	}
	for i, b := range x.bars {
		d := b.TakeArrivals()
		if d == 0 {
			continue
		}
		x.arrived[i] += d
		for r := range x.out {
			if r != me {
				x.out[r].Barriers = append(x.out[r].Barriers, barrierDelta{ID: i, Delta: d})
			}
		}
	}
	if x.pend != nil {
		x.pend.TakeDeltas(func(n, d int) {
			for r := range x.out {
				if r != me {
					x.out[r].Pending = append(x.out[r].Pending, pendingDelta{Node: n, Delta: d})
				}
			}
		})
	}
	for r := range x.out {
		if r == me {
			continue
		}
		e := &x.encs[r]
		e.reset()
		encodeWindowFrame(e, &x.out[r])
		x.w.peer(r).sendAsync(e.bytes())
	}
	gdone, gticked, gidle := localDone, ticked, idle
	for r := 0; r < x.w.Procs; r++ {
		if r == me {
			continue
		}
		b, err := x.w.peer(r).readFrame()
		if err != nil {
			panic(fmt.Sprintf("dist: worker %d lost peer %d at boundary %d: %v", me, r, next, err))
		}
		if err := decodeWindowFrame(b, &x.in); err != nil {
			panic(fmt.Sprintf("dist: worker %d: bad frame from peer %d: %v", me, r, err))
		}
		if x.in.Seq != x.seq || x.in.Boundary != next {
			panic(fmt.Sprintf("dist: worker %d desynchronized from peer %d: got (seq %d, boundary %d), want (%d, %d)",
				me, r, x.in.Seq, x.in.Boundary, x.seq, next))
		}
		gdone = gdone && x.in.Done
		gticked = gticked || x.in.Ticked
		if x.in.Idle < gidle {
			gidle = x.in.Idle
		}
		for _, bd := range x.in.Barriers {
			if bd.ID < 0 || bd.ID >= len(x.arrived) {
				panic(fmt.Sprintf("dist: barrier delta for unknown ID %d", bd.ID))
			}
			x.arrived[bd.ID] += bd.Delta
		}
		if x.pend != nil {
			for _, pd := range x.in.Pending {
				x.pend.ApplyRemote(pd.Node, pd.Delta)
			}
		}
		for i := range x.in.Flits {
			x.applyFlit(&x.in.Flits[i])
		}
		for _, ce := range x.in.Credits {
			w := x.inCredits[ce.Edge]
			if w == nil {
				panic(fmt.Sprintf("dist: credit for unknown ingress edge %d", ce.Edge))
			}
			w.InjectAt(ce.At, router.Credit{VC: ce.VC})
		}
	}
	for r := range x.out {
		if r == me {
			continue
		}
		if err := x.w.peer(r).waitSent(); err != nil {
			panic(fmt.Sprintf("dist: worker %d: send to peer %d failed: %v", me, r, err))
		}
		f := &x.out[r]
		f.Barriers, f.Pending = f.Barriers[:0], f.Pending[:0]
		f.Flits, f.Credits = f.Flits[:0], f.Credits[:0]
	}
	x.completeBarriers(next)
	x.seq++
	if gdone {
		return true, next
	}
	if gticked {
		return false, next
	}
	return false, gidle
}

// completeBarriers releases every barrier whose global arrival count reached
// its participant total this window. At a lattice boundary the release runs
// immediately with now = next-1 — this call IS the boundary drain, matching
// the due an in-process AtBarrier release would have. At a clamped (earlier-
// than-lattice) boundary the release defers through AtBarrier, which
// re-quantizes it to the lattice point of the staging cycle — again exactly
// where the in-process release would land. Every worker runs this with the
// same counts, so releases happen at the same instant everywhere.
func (x *Exchange) completeBarriers(next sim.Cycle) {
	for i, b := range x.bars {
		if x.arrived[i] < b.Participants() {
			continue
		}
		x.arrived[i] -= b.Participants()
		if next%x.eng.Window() == 0 {
			b.CompleteAt(next - 1)
		} else {
			x.eng.AtBarrier(x.lo, next, b.CompleteAt)
		}
	}
}

// applyFlit replays one remote flit arrival: materialize the packet copy on
// head flits, resolve body flits to their VC's in-flight packet, drop the
// entry when the tail flit passes, and inject into the local wire. The PktID
// echo doubles as a desync tripwire on every body flit.
func (x *Exchange) applyFlit(fe *flitEvent) {
	in := x.inFlits[fe.Edge]
	if in == nil {
		panic(fmt.Sprintf("dist: flit for unknown ingress edge %d", fe.Edge))
	}
	var p *packet.Packet
	if fe.HasPkt {
		p = new(packet.Packet)
		*p = fe.Pkt
		in.cur[fe.VC] = p
	} else if p = in.cur[fe.VC]; p == nil || p.ID != fe.PktID {
		panic(fmt.Sprintf("dist: body flit %d of packet %d does not continue edge %d VC %d", fe.Index, fe.PktID, fe.Edge, fe.VC))
	}
	if fe.Index == p.Flits()-1 {
		delete(in.cur, fe.VC)
	}
	in.l.InjectAt(fe.At, packet.Flit{Pkt: p, Index: fe.Index, VC: fe.VC})
}
