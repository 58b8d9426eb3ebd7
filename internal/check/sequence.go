package check

import (
	"sort"

	"nifdy/internal/nic"
	"nifdy/internal/packet"
	"nifdy/internal/sim"
)

// pairKey identifies one directed (src, dst) traffic pair.
type pairKey struct{ src, dst int }

// sendRec is the in-flight record of one sent packet: its pair and its
// per-pair send index (0, 1, 2, ... in send order).
type sendRec struct {
	pair pairKey
	idx  int64
}

func sortRecs(recs []sendRec) {
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.pair != b.pair {
			if a.pair.src != b.pair.src {
				return a.pair.src < b.pair.src
			}
			return a.pair.dst < b.pair.dst
		}
		return a.idx < b.idx
	})
}

// event is one NIC packet-lifecycle observation. Cycle comes from the
// packet's own timestamps (CreatedAt / AcceptedAt), which the NICs stamp
// immediately before firing their hooks.
type event struct {
	cycle  sim.Cycle
	accept bool
	p      *packet.Packet
	src    int
	dst    int
}

// eventLog is one shard's append-only event buffer. Each shard's NICs tick
// on one goroutine, so appends are race-free; the checker drains every log
// on the stepping goroutine at the step hook, when no shard is ticking.
type eventLog struct{ evs []event }

// HooksFor returns NIC hooks that record send/accept events into shard sh's
// log. Returns empty hooks when event tracking is disabled, so the NICs'
// hook slots stay nil and the hot path pays nothing.
func (c *Checker) HooksFor(sh int) nic.Hooks {
	if !c.tracking() {
		return nic.Hooks{}
	}
	for len(c.logs) <= sh {
		c.logs = append(c.logs, &eventLog{})
	}
	l := c.logs[sh]
	return nic.Hooks{
		OnSend: func(p *packet.Packet) {
			l.evs = append(l.evs, event{cycle: p.CreatedAt, p: p, src: p.Src, dst: p.Dst})
		},
		OnAccept: func(p *packet.Packet) {
			l.evs = append(l.evs, event{cycle: p.AcceptedAt, accept: true, p: p, src: p.Src, dst: p.Dst})
		},
	}
}

// processEvents drains every shard log and applies the sequence-accounting
// state machine. Events are globally ordered by (cycle, send-before-accept,
// shard, log position): an accept is always at least one cycle after its
// send (network latency), so this order is causally consistent, and it is
// identical for every shard count because cycle stamps don't depend on
// shard assignment.
func (c *Checker) processEvents(now sim.Cycle) {
	var all []event
	for _, l := range c.logs {
		all = append(all, l.evs...)
		for i := range l.evs {
			l.evs[i] = event{}
		}
		l.evs = l.evs[:0]
	}
	if len(all) == 0 {
		return
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].cycle != all[j].cycle {
			return all[i].cycle < all[j].cycle
		}
		return !all[i].accept && all[j].accept
	})
	for _, e := range all {
		if e.accept {
			c.onAccept(now, e)
		} else {
			c.onSend(now, e)
		}
	}
}

func (c *Checker) onSend(now sim.Cycle, e event) {
	pair := pairKey{e.src, e.dst}
	if c.opts.ByID {
		if prev, ok := c.inflightID[e.p.ID]; ok {
			c.report(now, MonLossDup, e.src,
				"packet ID %d re-sent while in flight (previous: %d->%d #%d, now %d->%d)",
				e.p.ID, prev.pair.src, prev.pair.dst, prev.idx, e.src, e.dst)
		}
	} else if prev, ok := c.inflight[e.p]; ok {
		// The same pointer was handed to a NIC while still tracked: the
		// earlier instance was recycled (or lost) while notionally in
		// flight.
		c.report(now, MonLossDup, e.src,
			"packet pointer re-sent while in flight (previous: %d->%d #%d, now %d->%d)",
			prev.pair.src, prev.pair.dst, prev.idx, e.src, e.dst)
	}
	idx := c.nextIdx[pair]
	c.nextIdx[pair] = idx + 1
	if c.opts.ByID {
		c.inflightID[e.p.ID] = sendRec{pair: pair, idx: idx}
	} else {
		c.inflight[e.p] = sendRec{pair: pair, idx: idx}
	}
	if _, seen := c.lastIdx[pair]; !seen {
		c.lastIdx[pair] = -1
	}
}

func (c *Checker) onAccept(now sim.Cycle, e event) {
	var rec sendRec
	var ok bool
	if c.opts.ByID {
		rec, ok = c.inflightID[e.p.ID]
	} else {
		rec, ok = c.inflight[e.p]
	}
	if !ok {
		c.report(now, MonLossDup, e.dst,
			"accepted packet %v was never sent or was already accepted (duplicate delivery)", e.p)
		return
	}
	if c.opts.ByID {
		delete(c.inflightID, e.p.ID)
	} else {
		delete(c.inflight, e.p)
	}
	if c.opts.InOrder {
		if last := c.lastIdx[rec.pair]; rec.idx < last {
			c.report(now, MonInOrder, e.dst,
				"pair %d->%d accepted send #%d after send #%d", rec.pair.src, rec.pair.dst, rec.idx, last)
		} else {
			c.lastIdx[rec.pair] = rec.idx
		}
	}
}
