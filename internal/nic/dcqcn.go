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

// DCQCNConfig sizes a DCQCN NIC — the RoCEv2-style rate-control baseline:
// ECN marks applied by the routers are echoed by the destination as CNPs,
// and the source multiplicatively decreases its sending rate on each CNP,
// recovering through fast / additive / hyper-active increase stages
// (Zhu et al., SIGCOMM 2015; see PAPERS.md). Zero values select defaults.
type DCQCNConfig struct {
	// Node is the node number.
	Node int
	// OutBuf and ArrBuf are the FIFO capacities in packets (minimum 1),
	// exactly as in BasicConfig.
	OutBuf, ArrBuf int
	// CPF is the access-link serialization time in cycles per flit — the
	// pacing granularity: at line rate a packet of F flits occupies F*CPF
	// cycles, and the limiter stretches that gap by RateScale/rate.
	CPF int
	// MinRate is the rate floor (default RateScale/64): DCQCN never stops a
	// flow entirely.
	MinRate int64
	// AI and HAI are the additive and hyper-active increase steps applied to
	// the target rate per recovery period after fast recovery ends (defaults
	// RateScale/32 and RateScale/8).
	AI, HAI int64
	// RecoveryPeriod is the rate-increase timer in cycles (default 128).
	RecoveryPeriod sim.Cycle
	// CNPPeriod is the minimum gap in cycles between CNPs echoed to the same
	// source (default 64) — the CNP timer of the DCQCN spec.
	CNPPeriod sim.Cycle
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

// DCQCN is the rate-controlled NIC kind. Its data path is the Basic NIC's
// (strict-FIFO out queue, bounded arrivals queue); on top of it sit the rate
// limiter (injection pacing), the CNP echo path (receiver side), and the
// DCQCN rate state machine (sender side).
type DCQCN struct {
	cfg   DCQCNConfig
	iface router.Port
	out   ring.Deque[*packet.Packet]
	arr   ring.Deque[*packet.Packet]
	cnpQ  ring.Deque[*packet.Packet]
	pool  packet.Pool
	proc  *sim.Activity // as Basic's
	stats Stats

	// Rate state (sender side), all fixed-point.
	rate, target int64
	alpha        int64
	lastDecAt    sim.Cycle // cycle of the last rate decrease
	recovered    int       // recovery stages applied since then
	nextSendAt   sim.Cycle // pacing gate for the next data injection

	// CNP suppression (receiver side): last CNP cycle per source. Lookups
	// and inserts only; never iterated.
	lastCNP map[int]sim.Cycle

	cnpPred func(*packet.Packet) bool

	mutOverflowDone bool
}

// NewDCQCN returns a DCQCN NIC attached to iface.
func NewDCQCN(cfg DCQCNConfig, iface router.Port) *DCQCN {
	if cfg.OutBuf < 1 {
		cfg.OutBuf = 1
	}
	if cfg.ArrBuf < 1 {
		cfg.ArrBuf = 1
	}
	if cfg.CPF < 1 {
		cfg.CPF = 1
	}
	if cfg.MinRate <= 0 {
		cfg.MinRate = RateScale / 64
	}
	if cfg.AI <= 0 {
		cfg.AI = RateScale / 32
	}
	if cfg.HAI <= 0 {
		cfg.HAI = RateScale / 8
	}
	if cfg.RecoveryPeriod <= 0 {
		cfg.RecoveryPeriod = 128
	}
	if cfg.CNPPeriod <= 0 {
		cfg.CNPPeriod = 64
	}
	d := &DCQCN{
		cfg: cfg, iface: iface,
		rate: RateScale, target: RateScale,
		lastCNP: map[int]sim.Cycle{},
	}
	d.cnpPred = func(p *packet.Packet) bool { return p.Kind == packet.Ack && p.CNP }
	return d
}

// Node implements NIC.
func (d *DCQCN) Node() int { return d.cfg.Node }

// Stats implements NIC.
func (d *DCQCN) Stats() *Stats { return &d.stats }

// Pool implements NIC.
func (d *DCQCN) Pool() *packet.Pool { return &d.pool }

// Activity implements sim.IdleTicker.
func (d *DCQCN) Activity() *sim.Activity { return d.iface.Activity() }

// ObserveProc implements NIC.
func (d *DCQCN) ObserveProc(a *sim.Activity) { d.proc = a }

// RateBounds exposes the limiter state to the dcqcn-rate invariant monitor:
// the current rate and the clamp it must never leave.
func (d *DCQCN) RateBounds() (rate, min, max int64) {
	return d.rate, d.cfg.MinRate, RateScale
}

// TrySend implements NIC.
func (d *DCQCN) TrySend(now sim.Cycle, p *packet.Packet) bool {
	if d.out.Len() >= d.cfg.OutBuf {
		return false
	}
	p.CreatedAt = now
	d.out.PushBack(p)
	d.stats.Sent++
	d.cfg.Hooks.Send(p)
	d.iface.Activity().Wake()
	return true
}

// Recv implements NIC.
func (d *DCQCN) Recv(now sim.Cycle) (*packet.Packet, bool) {
	p, ok := d.arr.PopFront()
	if !ok {
		return nil, false
	}
	p.AcceptedAt = now
	d.stats.Accepted++
	d.cfg.Hooks.Accept(p)
	d.iface.Activity().Wake()
	return p, true
}

// Pending implements NIC.
func (d *DCQCN) Pending() int { return d.arr.Len() }

// Idle implements NIC.
func (d *DCQCN) Idle() bool {
	return d.out.Len() == 0 && d.arr.Len() == 0 && d.cnpQ.Len() == 0 &&
		d.iface.Sending(packet.Request) == nil && d.iface.Sending(packet.Reply) == nil &&
		d.iface.PendingFlits() == 0
}

// Audit implements Auditable: packets live in the three FIFOs only.
func (d *DCQCN) Audit(a Auditor) {
	if a.Queued == nil {
		return
	}
	d.out.ForEach(func(p *packet.Packet) { a.Queued("out", p) })
	d.arr.ForEach(func(p *packet.Packet) { a.Queued("arr", p) })
	d.cnpQ.ForEach(func(p *packet.Packet) { a.Queued("cnp", p) })
}

// applyRecovery advances the rate-increase state machine to now: one fast-
// recovery stage per elapsed period for the first five (rate halves toward
// target), then additive increase, then hyper-active increase. Alpha decays
// by g per period. The loop is bounded: once rate and target both reach line
// rate the state is saturated and the stage counter jumps forward.
func (d *DCQCN) applyRecovery(now sim.Cycle) {
	const g = alphaScale / 16
	stages := int((now - d.lastDecAt) / d.cfg.RecoveryPeriod)
	for ; d.recovered < stages; d.recovered++ {
		if d.rate >= RateScale && d.target >= RateScale {
			d.rate, d.target = RateScale, RateScale
			d.recovered = stages
			break
		}
		d.alpha -= d.alpha * g / alphaScale
		switch {
		case d.recovered < 5:
			// Fast recovery: halve toward the pre-decrease target.
		case d.recovered < 10:
			d.target += d.cfg.AI
		default:
			d.target += d.cfg.HAI
		}
		if d.target > RateScale {
			d.target = RateScale
		}
		d.rate = (d.rate + d.target) / 2
	}
	if d.cfg.Mutate.RateOverflow && !d.mutOverflowDone && stages > 0 {
		// Injected fault: skip the clamp once, doubling past line rate.
		d.mutOverflowDone = true
		d.rate = 2 * RateScale
		return
	}
	if d.rate > RateScale {
		d.rate = RateScale
	}
	if d.rate < d.cfg.MinRate {
		d.rate = d.cfg.MinRate
	}
}

// onCNP applies one congestion notification: remember the current rate as
// the recovery target, cut the rate multiplicatively by alpha/2, and raise
// the congestion estimate.
func (d *DCQCN) onCNP(now sim.Cycle) {
	const g = alphaScale / 16
	d.applyRecovery(now)
	d.target = d.rate
	d.rate -= d.rate * d.alpha / (2 * alphaScale)
	if d.rate < d.cfg.MinRate {
		d.rate = d.cfg.MinRate
	}
	d.alpha += g * (alphaScale - d.alpha) / alphaScale
	d.lastDecAt = now
	d.recovered = 0
}

// echoCNP queues a congestion notification back to src, subject to the
// per-source CNP timer.
func (d *DCQCN) echoCNP(now sim.Cycle, src int) {
	if last, ok := d.lastCNP[src]; ok && now-last < d.cfg.CNPPeriod {
		return
	}
	d.lastCNP[src] = now
	cnp := d.pool.Get()
	cnp.Src = d.cfg.Node
	cnp.Dst = src
	cnp.Kind = packet.Ack
	cnp.Class = packet.Reply
	cnp.Words = 1
	cnp.CNP = true
	cnp.NoAck = true
	cnp.CreatedAt = now
	d.cnpQ.PushBack(cnp)
}

// Tick implements sim.Ticker: pump the iface, inject CNPs (congestion
// feedback preempts data on the reply class), inject the paced FIFO head,
// and pull arrivals — consuming CNPs internally and echoing ECN marks.
func (d *DCQCN) Tick(now sim.Cycle) {
	progress := d.iface.Pump(now)
	if head, ok := d.cnpQ.Front(); ok && d.iface.CanAccept(head.Class) {
		p, _ := d.cnpQ.PopFront()
		d.iface.StartSend(now, p)
		d.stats.AcksSent++
		progress = true
	}
	pacingBlocked := false
	if head, ok := d.out.Front(); ok {
		if now < d.nextSendAt {
			pacingBlocked = true
		} else if d.iface.CanAccept(head.Class) {
			wakeOnRoom(d.proc, d.out.Len(), d.cfg.OutBuf)
			p, _ := d.out.PopFront()
			d.iface.StartSend(now, p)
			d.stats.Injected++
			d.applyRecovery(now)
			gap := int64(p.Flits()) * int64(d.cfg.CPF) * RateScale / d.rate
			d.nextSendAt = now + sim.Cycle(gap)
			progress = true
		}
	}
	for {
		var p *packet.Packet
		var ok bool
		if d.arr.Len() < d.cfg.ArrBuf {
			p, ok = d.iface.Deliver(now, nil)
		} else {
			// Arrivals queue full: still drain congestion notifications, so
			// a backlogged receiver cannot stall its own rate control.
			p, ok = d.iface.Deliver(now, d.cnpPred)
		}
		if !ok {
			break
		}
		progress = true
		if p.Kind == packet.Ack && p.CNP {
			d.stats.AcksReceived++
			d.onCNP(now)
			d.pool.Put(p)
			continue
		}
		if p.ECN {
			d.echoCNP(now, p.Src)
		}
		d.arr.PushBack(p)
		wakeProc(d.proc)
	}
	if d.out.Len() == 0 && d.cnpQ.Len() == 0 && d.iface.Quiet() {
		d.iface.Activity().Sleep(d.iface.NextArrivalAt())
	} else if !progress {
		bound := d.iface.BlockedBound(now)
		if pacingBlocked && d.nextSendAt < bound {
			// The pacing timer is a wake edge of our own making; BlockedBound
			// cannot know it.
			bound = d.nextSendAt
		}
		d.iface.Activity().Sleep(bound)
	}
}
