package nic

import (
	"nifdy/internal/packet"
	"nifdy/internal/ring"
	"nifdy/internal/router"
	"nifdy/internal/sim"
)

// RateScale is the fixed-point unit of the DCQCN rate limiter: a rate of
// RateScale is line rate (one flit per access-link flit slot), RateScale/2 is
// half line rate, and so on. All rate arithmetic is integer, so the limiter
// is bit-deterministic for any shard count.
const RateScale int64 = 1024

// alphaScale is the fixed-point unit of the congestion estimate alpha.
const alphaScale int64 = 1024

// Fixed DCQCN tuning, in RateScale units and cycles.
const (
	// minRate is the rate floor: DCQCN never stops a flow entirely.
	minRate = RateScale / 64
	// rateAI and rateHAI are the additive and hyper-active increase steps
	// applied to the target rate per recovery period after fast recovery
	// ends.
	rateAI, rateHAI = RateScale / 32, RateScale / 8
	// recoveryPeriod is the rate-increase timer in cycles.
	recoveryPeriod sim.Cycle = 128
	// cnpPeriod is the minimum gap in cycles between CNPs echoed to the same
	// source — the CNP timer of the DCQCN spec.
	cnpPeriod sim.Cycle = 64
	// alphaG is the gain g of the congestion estimate alpha.
	alphaG = alphaScale / 16
)

// DCQCNConfig sizes a DCQCN NIC — the RoCEv2-style rate-control baseline:
// ECN marks applied by the routers are echoed by the destination as CNPs,
// and the source multiplicatively decreases its sending rate on each CNP,
// recovering through fast / additive / hyper-active increase stages (Zhu et
// al., "Congestion Control for Large-Scale RDMA Deployments", SIGCOMM 2015).
type DCQCNConfig struct {
	// Node is the node number.
	Node int
	// OutBuf and ArrBuf are the FIFO capacities in packets (minimum 1),
	// exactly as in BasicConfig.
	OutBuf, ArrBuf int
	// CPF is the access-link serialization time in cycles per flit — the
	// pacing granularity: at line rate a packet of F flits occupies F*CPF
	// cycles, and the limiter stretches that gap by RateScale/rate. Zero
	// selects 1.
	CPF int
	// Hooks observe packet events.
	Hooks Hooks
	// Mutate injects rate-limiter faults for monitor validation (test-only).
	Mutate DCQCNMutations
}

// DCQCNMutations are deliberate one-shot faults for the internal/check
// mutation tests. They must never be set outside tests.
type DCQCNMutations struct {
	// RateOverflow skips the line-rate clamp once during recovery, pushing
	// the sending rate above the configured maximum — the breach the
	// dcqcn-rate monitor must catch.
	RateOverflow bool
}

// DCQCN is the rate-controlled NIC kind. Its data path is the embedded Basic
// NIC's (strict-FIFO out queue, bounded arrivals queue); on top of it sit the
// rate limiter (injection pacing), the CNP echo path (receiver side), and the
// DCQCN rate state machine (sender side).
type DCQCN struct {
	Basic
	cpf    int64 // access-link cycles per flit (DCQCNConfig.CPF)
	mutate DCQCNMutations
	cnpQ   ring.Deque[*packet.Packet]

	// Rate state (sender side), all fixed-point.
	rate, target int64
	alpha        int64
	lastDecAt    sim.Cycle // cycle of the last rate decrease
	recovered    int       // recovery stages applied since then
	nextSendAt   sim.Cycle // pacing gate for the next data injection

	// CNP suppression (receiver side): last CNP cycle per source. Lookups
	// and inserts only; never iterated.
	lastCNP map[int]sim.Cycle

	mutOverflowDone bool
}

// NewDCQCN returns a DCQCN NIC attached to iface.
func NewDCQCN(cfg DCQCNConfig, iface router.Port) *DCQCN {
	b := NewBasic(BasicConfig{Node: cfg.Node, OutBuf: cfg.OutBuf, ArrBuf: cfg.ArrBuf, Hooks: cfg.Hooks}, iface)
	return &DCQCN{
		Basic: *b, cpf: int64(max(cfg.CPF, 1)), mutate: cfg.Mutate,
		rate: RateScale, target: RateScale,
		lastCNP: map[int]sim.Cycle{},
	}
}

// isCNP is the Deliver predicate a full arrivals queue still drains.
func isCNP(p *packet.Packet) bool { return p.Kind == packet.Ack && p.CNP }

// RateBounds exposes the limiter state to the dcqcn-rate invariant monitor:
// the current rate and the clamp it must never leave.
func (d *DCQCN) RateBounds() (rate, min, max int64) {
	return d.rate, minRate, RateScale
}

// Idle implements NIC.
func (d *DCQCN) Idle() bool { return d.cnpQ.Len() == 0 && d.Basic.Idle() }

// Audit implements Auditable: packets live in the three FIFOs only.
func (d *DCQCN) Audit(a Auditor) {
	d.Basic.Audit(a)
	if a.Queued != nil {
		d.cnpQ.ForEach(func(p *packet.Packet) { a.Queued("cnp", p) })
	}
}

// applyRecovery advances the rate-increase state machine to now: one fast-
// recovery stage per elapsed period for the first five (rate halves toward
// target), then additive increase, then hyper-active increase. Alpha decays
// by alphaG per period. The loop is bounded: once rate and target both reach
// line rate the state is saturated and the stage counter jumps forward.
func (d *DCQCN) applyRecovery(now sim.Cycle) {
	stages := int((now - d.lastDecAt) / recoveryPeriod)
	for ; d.recovered < stages; d.recovered++ {
		if d.rate >= RateScale && d.target >= RateScale {
			d.rate, d.target = RateScale, RateScale
			d.recovered = stages
			break
		}
		d.alpha -= d.alpha * alphaG / alphaScale
		switch {
		case d.recovered < 5:
			// Fast recovery: halve toward the pre-decrease target.
		case d.recovered < 10:
			d.target += rateAI
		default:
			d.target += rateHAI
		}
		if d.target > RateScale {
			d.target = RateScale
		}
		d.rate = (d.rate + d.target) / 2
	}
	if d.mutate.RateOverflow && !d.mutOverflowDone && stages > 0 {
		// Injected fault: skip the clamp once, doubling past line rate.
		d.mutOverflowDone = true
		d.rate = 2 * RateScale
		return
	}
	if d.rate > RateScale {
		d.rate = RateScale
	}
	if d.rate < minRate {
		d.rate = minRate
	}
}

// onCNP applies one congestion notification: remember the current rate as
// the recovery target, cut the rate multiplicatively by alpha/2, and raise
// the congestion estimate.
func (d *DCQCN) onCNP(now sim.Cycle) {
	d.applyRecovery(now)
	d.target = d.rate
	d.rate -= d.rate * d.alpha / (2 * alphaScale)
	if d.rate < minRate {
		d.rate = minRate
	}
	d.alpha += alphaG * (alphaScale - d.alpha) / alphaScale
	d.lastDecAt = now
	d.recovered = 0
}

// echoCNP queues a congestion notification back to src, subject to the
// per-source CNP timer.
func (d *DCQCN) echoCNP(now sim.Cycle, src int) {
	if last, ok := d.lastCNP[src]; ok && now-last < cnpPeriod {
		return
	}
	d.lastCNP[src] = now
	cnp := d.pool.Get()
	cnp.Src = d.node
	cnp.Dst = src
	cnp.Kind = packet.Ack
	cnp.Class = packet.Reply
	cnp.Words = 1
	cnp.CNP = true
	cnp.CreatedAt = now
	d.cnpQ.PushBack(cnp)
}

// Tick implements sim.Ticker: pump the iface, inject CNPs (congestion
// feedback preempts data on the reply class), inject the paced FIFO head,
// and pull arrivals — consuming CNPs internally and echoing ECN marks.
func (d *DCQCN) Tick(now sim.Cycle) {
	progress := d.Port.Pump(now)
	if head, ok := d.cnpQ.Front(); ok && d.Port.CanAccept(head.Class) {
		p, _ := d.cnpQ.PopFront()
		d.Port.StartSend(now, p)
		d.stats.AcksSent++
		progress = true
	}
	pacingBlocked := false
	if head, ok := d.out.Front(); ok {
		if now < d.nextSendAt {
			pacingBlocked = true
		} else if d.Port.CanAccept(head.Class) {
			d.WakeOnRoom(d.out.Len(), d.outBuf)
			p, _ := d.out.PopFront()
			d.Port.StartSend(now, p)
			d.stats.Injected++
			d.applyRecovery(now)
			gap := int64(p.Flits()) * d.cpf * RateScale / d.rate
			d.nextSendAt = now + sim.Cycle(gap)
			progress = true
		}
	}
	for {
		var p *packet.Packet
		var ok bool
		if d.Arr.Len() < d.arrBuf {
			p, ok = d.Port.Deliver(now, nil)
		} else {
			// Arrivals queue full: still drain congestion notifications, so
			// a backlogged receiver cannot stall its own rate control.
			p, ok = d.Port.Deliver(now, isCNP)
		}
		if !ok {
			break
		}
		progress = true
		if isCNP(p) {
			d.stats.AcksReceived++
			d.onCNP(now)
			d.pool.Put(p)
			continue
		}
		if p.ECN {
			d.echoCNP(now, p.Src)
		}
		d.Arrive(p)
	}
	if d.out.Len() == 0 && d.cnpQ.Len() == 0 && d.Port.Quiet() {
		d.Activity().Sleep(d.Port.NextArrivalAt())
	} else if !progress {
		bound := d.Port.BlockedBound(now)
		if pacingBlocked && d.nextSendAt < bound {
			// The pacing timer is a wake edge of our own making; BlockedBound
			// cannot know it.
			bound = d.nextSendAt
		}
		d.Activity().Sleep(bound)
	} else {
		d.Activity().WakeAt(now + 1) // as Basic: staying awake is asked for
	}
}
