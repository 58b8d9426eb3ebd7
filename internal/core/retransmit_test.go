package core

import (
	"testing"

	"nifdy/internal/check"
	"nifdy/internal/nic"
	"nifdy/internal/packet"
	"nifdy/internal/router"
	"nifdy/internal/sim"
)

// faultPort wraps a node's fabric interface with targeted, deterministic
// faults for the §6.2 retransmission tests: swallow an outgoing packet (loss
// on the wire), park one for a fixed delay (a slow path that makes an ack
// cross its own resend in flight), or re-deliver an arrival once (a
// duplicate the fabric manufactured). Unlike topo.IfaceOptions.DropProb —
// which rolls every flit — faultPort hits one chosen packet, so each test
// exercises exactly one recovery path.
type faultPort struct {
	router.Port
	now sim.Cycle

	swallow func(*packet.Packet) bool      // drop this outgoing packet on the wire
	holdFor func(*packet.Packet) sim.Cycle // park this outgoing packet for N cycles
	dup     func(*packet.Packet) bool      // re-deliver this arrival once

	held    *packet.Packet
	release sim.Cycle
	dupQ    []*packet.Packet
}

func (f *faultPort) StartSend(now sim.Cycle, p *packet.Packet) {
	if f.swallow != nil && f.swallow(p) {
		return // vanished on the wire; no flit ever serialized
	}
	if f.holdFor != nil {
		if d := f.holdFor(p); d > 0 {
			f.held, f.release = p, now+d
			return
		}
	}
	f.Port.StartSend(now, p)
}

// CanAccept refuses the held packet's class so later packets cannot overtake
// the parked one — the fault delays, it does not reorder.
func (f *faultPort) CanAccept(c packet.Class) bool {
	if f.held != nil && f.held.Class == c {
		return false
	}
	return f.Port.CanAccept(c)
}

func (f *faultPort) Pump(now sim.Cycle) bool {
	f.now = now
	prog := false
	if f.held != nil && now >= f.release && f.Port.CanAccept(f.held.Class) {
		f.Port.StartSend(now, f.held)
		f.held = nil
		prog = true
	}
	return f.Port.Pump(now) || prog
}

func (f *faultPort) Deliver(now sim.Cycle, pred func(*packet.Packet) bool) (*packet.Packet, bool) {
	for i, d := range f.dupQ {
		if pred(d) {
			f.dupQ = append(f.dupQ[:i], f.dupQ[i+1:]...)
			return d, true
		}
	}
	p, ok := f.Port.Deliver(now, pred)
	if ok && f.dup != nil && f.dup(p) {
		c := *p
		f.dupQ = append(f.dupQ, &c)
	}
	return p, ok
}

// The sleep bounds must see the parked packet and the fabricated duplicates,
// or the NIC could sleep past the release cycle and stall the run.
func (f *faultPort) Quiet() bool {
	return f.held == nil && len(f.dupQ) == 0 && f.Port.Quiet()
}

func (f *faultPort) NextArrivalAt() sim.Cycle {
	at := f.Port.NextArrivalAt()
	if f.held != nil && f.release < at {
		at = f.release
	}
	if len(f.dupQ) > 0 && f.now+1 < at {
		at = f.now + 1
	}
	return at
}

func (f *faultPort) BlockedBound(now sim.Cycle) sim.Cycle {
	b := f.Port.BlockedBound(now)
	if f.held != nil && f.release < b {
		b = f.release
	}
	return b
}

// once fires its match at most one time.
func once(match func(*packet.Packet) bool) func(*packet.Packet) bool {
	fired := false
	return func(p *packet.Packet) bool {
		if fired || !match(p) {
			return false
		}
		fired = true
		return true
	}
}

// holdOnce parks the first matching packet for d cycles.
func holdOnce(match func(*packet.Packet) bool, d sim.Cycle) func(*packet.Packet) sim.Cycle {
	m := once(match)
	return func(p *packet.Packet) sim.Cycle {
		if m(p) {
			return d
		}
		return 0
	}
}

// isData matches data packets; acks are matched by the package's own isAck.
func isData(p *packet.Packet) bool { return p.Kind == packet.Data }

// TestRetransmitFaultMatrix drives the §6.2 recovery machinery through each
// single-fault scenario with the no-loss/no-duplicate sequence accounting
// armed (ID-keyed, so a retransmitted copy counts as the same packet). Every
// case must end with all packets accepted exactly once, in per-pair order,
// zero monitor violations, and the retransmit/duplicate counters showing the
// recovery actually ran — not that the fault silently missed.
func TestRetransmitFaultMatrix(t *testing.T) {
	const (
		src, dst    = 0, 15
		npkts       = 4
		retxTimeout = sim.Cycle(600)
	)
	cases := []struct {
		name string
		arm  func(sp, dp *faultPort)
		// wantRetx: the sender's timer must fire; wantDup: the receiver must
		// see (and discard) a duplicate. Both are also asserted as exact
		// zeroes when unset: a fault that provokes no recovery, or recovery
		// where none should occur, is a test bug.
		wantRetx, wantDup bool
	}{
		{
			// Data lost on the wire: the receiver never sees the original, so
			// the resend is accepted as a first delivery — retransmits, no
			// duplicates.
			name:     "drop data",
			arm:      func(sp, dp *faultPort) { sp.swallow = once(isData) },
			wantRetx: true,
		},
		{
			// Ack lost: the data arrived and was accepted, so the timeout
			// resend reaches an already-acked slot — the receiver discards it
			// by the dup bit and re-acks (§6.2).
			name:     "drop ack",
			arm:      func(sp, dp *faultPort) { dp.swallow = once(isAck) },
			wantRetx: true,
			wantDup:  true,
		},
		{
			// The fabric duplicates a delivery outright: no timer fires, the
			// dup bit alone must reject the copy.
			name:    "duplicate delivery",
			arm:     func(sp, dp *faultPort) { dp.dup = once(isData) },
			wantDup: true,
		},
		{
			// Ack parked far past the timer: multiple resends go out and are
			// all discarded before the original ack finally lands.
			name:     "timeout before ack",
			arm:      func(sp, dp *faultPort) { dp.holdFor = holdOnce(isAck, 3*retxTimeout) },
			wantRetx: true,
			wantDup:  true,
		},
		{
			// Ack parked just past the timer: the resend and the late ack
			// cross in flight. The sender clears the slot off the late ack
			// while its resend is still traveling; the resend's re-ack then
			// hits a slot that no longer exists and must be ignored.
			name:     "resend collides with late ack",
			arm:      func(sp, dp *faultPort) { dp.holdFor = holdOnce(isAck, retxTimeout+40) },
			wantRetx: true,
			wantDup:  true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New()
			net := smallMesh(t)
			var got []check.Violation
			ck := check.New(eng, net, check.Options{
				Interval: 8, Sequence: true, ByID: true, Local: true,
				OnViolation: func(v check.Violation) {
					if len(got) < 8 {
						got = append(got, v)
					}
				},
			})
			hooks := ck.HooksFor(0)
			ports := map[int]*faultPort{}
			w := newWorldOn(t, eng, net, func(n int, ifc router.Port) nic.NIC {
				fp := &faultPort{Port: ifc}
				ports[n] = fp
				u := New(Config{
					Node: n, Retransmit: true, RetransmitTimeout: retxTimeout,
					Hooks: hooks,
				}, fp)
				ck.AddNIC(u)
				return u
			})
			tc.arm(ports[src], ports[dst])
			ck.Install()
			w.msg(src, dst, npkts, 8, false)
			w.run(200_000)
			ck.Finish(eng.Now())
			w.checkPerPairOrder()
			for _, v := range got {
				t.Errorf("%s", v)
			}
			if ck.Sweeps() == 0 {
				t.Fatal("checker never swept")
			}
			retx := w.nics[src].Stats().Retransmits
			dups := w.nics[dst].Stats().Duplicates
			if tc.wantRetx != (retx > 0) {
				t.Errorf("sender retransmits = %d, want >0 == %v", retx, tc.wantRetx)
			}
			if tc.wantDup != (dups > 0) {
				t.Errorf("receiver duplicates = %d, want >0 == %v", dups, tc.wantDup)
			}
			if n := len(w.recvd[dst]); n != npkts {
				t.Errorf("receiver accepted %d packets, want %d", n, npkts)
			}
		})
	}
}
