// Mutation validation: every monitor must trip when the one guard it
// watches is deliberately broken, and stay silent on the healthy protocol.
// Each case injects exactly one fault (core.Mutations or
// router.IfaceMutations) into a directed workload built to exercise the
// mutated path, then steps the engine until the expected monitor fires.
package check_test

import (
	"testing"

	"nifdy/internal/check"
	"nifdy/internal/core"
	"nifdy/internal/harness"
	"nifdy/internal/nic"
	"nifdy/internal/node"
	"nifdy/internal/router"
	"nifdy/internal/sim"
)

// sendTo allocates and sends one 8-word data packet.
func sendTo(p *node.Proc, dst int, bulkReq bool) {
	pk := p.Alloc()
	pk.Src = p.ID()
	pk.Dst = dst
	pk.Words = 8
	pk.BulkReq = bulkReq
	p.Send(pk)
}

// burst returns a program sending n packets to dst. With bulk set, every
// packet carries the bulk-request bit, so a granted dialog never exits.
func burst(n, dst int, bulk bool) node.Program {
	return func(p *node.Proc) {
		for i := 0; i < n; i++ {
			sendTo(p, dst, bulk)
		}
	}
}

// drainUntil returns a receiver accepting packets (with cost per-packet
// compute) until cycle limit.
func drainUntil(limit sim.Cycle, cost sim.Cycle) node.Program {
	return func(p *node.Proc) {
		for {
			pk, ok := p.RecvOr(func() bool { return p.Now() > limit })
			if !ok {
				return
			}
			p.Free(pk)
			if cost > 0 {
				p.Consume(cost)
			}
		}
	}
}

// only wraps per-node programs: nodes without an entry get no processor.
func only(progs map[int]node.Program) func(n int) node.Program {
	return func(n int) node.Program { return progs[n] }
}

type mutationCase struct {
	name string
	// want is the monitor that must trip.
	want string
	opts harness.BuildOpts
	// finish runs the simulation to completion and calls Checker.Finish
	// (required for end-to-end loss, which is only visible at the end).
	finish bool
	max    sim.Cycle
	// interval overrides the sweep interval; transient violations (a flit
	// in flight on a paused wire, a rate breach between two limiter
	// updates) are only visible to a sweep in the same cycle.
	interval sim.Cycle
}

func runMutation(t *testing.T, tc mutationCase) {
	t.Helper()
	seen := map[string]bool{}
	var got []check.Violation
	tc.opts.Check = &check.Options{
		Interval: tc.interval, Sequence: true, InOrder: true,
		OnViolation: func(v check.Violation) {
			seen[v.Monitor] = true
			if len(got) < 20 {
				got = append(got, v)
			}
		},
	}
	s := harness.Build(tc.opts)
	defer s.Close()
	max := tc.max
	if max == 0 {
		max = 20000
	}
	for i := sim.Cycle(0); i < max && !seen[tc.want]; i++ {
		if tc.finish && s.Done() {
			break
		}
		s.Eng.Step()
	}
	if tc.finish && !seen[tc.want] {
		s.Checker.Finish(s.Eng.Now())
	}
	if !seen[tc.want] {
		t.Fatalf("monitor %q did not trip by cycle %d; violations seen: %v", tc.want, s.Eng.Now(), got)
	}
}

func nifdyOpts(params core.Config, progs map[int]node.Program) harness.BuildOpts {
	return harness.BuildOpts{
		Net:     harness.Mesh2D(),
		Kind:    harness.NIFDY,
		Params:  params,
		Program: only(progs),
	}
}

func TestMutationsTripMonitors(t *testing.T) {
	cases := []mutationCase{
		{
			// A second scalar packet to a destination that already has one
			// outstanding: two OPT entries for one destination.
			name: "DupScalar/scalar-exclusive",
			want: check.MonScalarExclusive,
			opts: nifdyOpts(
				core.Config{O: 8, B: 8, D: 1, W: 2, Mutate: core.Mutations{DupScalar: true}},
				map[int]node.Program{0: burst(3, 1, false)}),
		},
		{
			// Scalar packets to more distinct destinations than O: the OPT
			// grows past its bound. Receivers never accept, so no acks drain
			// it.
			name: "OPTOverflow/opt-bound",
			want: check.MonOPTBound,
			opts: nifdyOpts(
				core.Config{O: 2, B: 8, D: 1, W: 2, Mutate: core.Mutations{OPTOverflow: true}},
				map[int]node.Program{0: func(p *node.Proc) {
					for dst := 1; dst <= 4; dst++ {
						sendTo(p, dst, false)
					}
				}}),
		},
		{
			// Two senders each granted a bulk dialog at a receiver with D=1:
			// the mutated unit allocates a slot beyond the bound.
			name: "ExtraDialog/dialog-bound",
			want: check.MonDialogBound,
			opts: nifdyOpts(
				core.Config{O: 8, B: 8, D: 1, W: 2, AckOnArrival: true,
					Mutate: core.Mutations{ExtraDialog: true}},
				map[int]node.Program{1: burst(8, 0, true), 2: burst(8, 0, true)}),
		},
		{
			// The sender keeps injecting bulk packets past W outstanding while
			// the receiver (no processor) stops draining.
			name: "WideWindow/window-bound",
			want: check.MonWindowBound,
			opts: nifdyOpts(
				core.Config{O: 8, B: 8, D: 1, W: 2, AckOnArrival: true,
					Mutate: core.Mutations{WideWindow: true}},
				map[int]node.Program{0: burst(10, 1, true)}),
		},
		{
			// A drained bulk packet jumps the arrivals queue past an earlier
			// packet: the processor accepts the pair inverted.
			name: "ReorderDrain/in-order",
			want: check.MonInOrder,
			opts: nifdyOpts(
				core.Config{O: 8, B: 8, D: 1, W: 4,
					Mutate: core.Mutations{ReorderDrain: true}},
				map[int]node.Program{
					0: burst(12, 1, true),
					1: drainUntil(15000, 200),
				}),
		},
		{
			// The first packet handed to TrySend is silently dropped: its
			// send was recorded, its accept never comes.
			name: "LosePacket/no-loss-dup",
			want: check.MonLossDup,
			opts: nifdyOpts(
				core.Config{O: 8, B: 8, D: 1, W: 2, Mutate: core.Mutations{LosePacket: true}},
				map[int]node.Program{
					0: burst(4, 1, false),
					1: drainUntil(8000, 0),
				}),
			finish: true,
			max:    12000,
		},
		{
			// The first accepted scalar arrival is pushed to the processor
			// twice: the second accept has no tracked send.
			name: "DupDeliver/no-loss-dup",
			want: check.MonLossDup,
			opts: nifdyOpts(
				core.Config{O: 8, B: 8, D: 1, W: 2, Mutate: core.Mutations{DupDeliver: true}},
				map[int]node.Program{
					0: burst(1, 1, false),
					1: drainUntil(8000, 0),
				}),
		},
		{
			// A consumed ack is recycled into the free-list while a live
			// reference remains in the arrivals FIFO.
			name: "RecycleLiveAck/recycle-safety",
			want: check.MonRecycleSafety,
			opts: nifdyOpts(
				core.Config{O: 8, B: 8, D: 1, W: 2, AckOnArrival: true,
					Mutate: core.Mutations{RecycleLiveAck: true}},
				map[int]node.Program{0: burst(2, 1, false)}),
		},
		{
			// The program retires a packet it is still trying to send. Node
			// 1 has no processor to drain it, so with a pool of 2 three sends
			// complete and the fourth stalls forever: the free-listed packet
			// is held nowhere but in the processor's engine-side Send state.
			name: "FreeUnsentPacket/recycle-safety",
			want: check.MonRecycleSafety,
			opts: nifdyOpts(
				core.Config{O: 8, B: 2, D: 1, W: 2},
				map[int]node.Program{0: func(p *node.Proc) {
					burst(3, 1, false)(p)
					pk := p.Alloc()
					pk.Src, pk.Dst, pk.Words = p.ID(), 1, 8
					p.Free(pk)
					p.Send(pk)
				}}),
		},
		{
			// The destination interface drops one arriving flit without
			// accounting: the lifetime counters and the census disagree
			// forever after.
			name: "DropArrival/flit-conservation",
			want: check.MonFlitConservation,
			opts: harness.BuildOpts{
				Net: harness.Mesh2D(), Kind: harness.NIFDY,
				Params:  core.Config{O: 8, B: 8, D: 1, W: 2},
				Program: only(map[int]node.Program{0: burst(2, 1, false)}),
				Faults:  harness.Faults{Node: 1, Iface: router.IfaceMutations{DropArrival: true}},
			},
		},
		{
			// The destination interface returns one credit too few after a
			// delivery: the per-VC books never balance again.
			name: "LeakCredit/credit-conservation",
			want: check.MonCreditConservation,
			opts: harness.BuildOpts{
				Net: harness.Mesh2D(), Kind: harness.NIFDY,
				Params:  core.Config{O: 8, B: 8, D: 1, W: 2},
				Program: only(map[int]node.Program{0: burst(2, 1, false)}),
				Faults:  harness.Faults{Node: 1, Iface: router.IfaceMutations{LeakCredit: true}},
			},
		},
		{
			// The source interface sends a flit it has no credit for: its
			// credit counter goes negative — visible to the monitor before
			// the downstream buffer overflow can panic. The mutation only
			// fires when a send attempt finds the counter exhausted, so the
			// workload floods the receiver (bulk, acked on arrival, no
			// processor draining) until backpressure reaches node 0's
			// injection channel.
			name: "IgnoreCredit/vc-capacity",
			want: check.MonVCCapacity,
			opts: harness.BuildOpts{
				Net: harness.Mesh2D(), Kind: harness.NIFDY,
				Params: core.Config{O: 8, B: 8, D: 1, W: 4, AckOnArrival: true},
				Program: only(map[int]node.Program{
					0: burst(30, 1, true),
					2: burst(30, 1, true),
				}),
				Faults: harness.Faults{Node: 0, Iface: router.IfaceMutations{IgnoreCredit: true}},
			},
		},
		{
			// The source interface transmits one flit on a VC whose
			// downstream issued a pause: the flit is on the wire with a send
			// time at/after the pause took effect. The breach lives only for
			// the flit's flight time, so the sweep runs every cycle. The
			// converging bursts fill node 0's injection channel past the
			// XOff threshold, which is what issues the pause.
			name: "PFCIgnorePause/pfc-pause",
			want: check.MonPFCPause,
			opts: harness.BuildOpts{
				Net: harness.Mesh2D(), Kind: harness.PFC,
				Program: only(map[int]node.Program{
					0: burst(30, 1, true),
					2: burst(30, 1, true),
				}),
				Faults: harness.Faults{Node: 0, Iface: router.IfaceMutations{PFCIgnorePause: true}},
			},
			interval: 1,
		},
		{
			// The destination's ejection side drains below XOn and clears its
			// pause state without sending the resume frame: the transmitter
			// stays paused while the receiver believes it resumed — the
			// pause/resume pairing is broken at every sweep thereafter. The
			// slow drain forces the ejection queue through a full
			// pause-then-resume cycle.
			name: "PFCDropResume/pfc-pause",
			want: check.MonPFCPause,
			opts: harness.BuildOpts{
				Net: harness.Mesh2D(), Kind: harness.PFC,
				Program: only(map[int]node.Program{
					0: burst(20, 1, true),
					1: drainUntil(15000, 200),
				}),
				Faults: harness.Faults{Node: 1, Iface: router.IfaceMutations{PFCDropResume: true}},
			},
		},
		{
			// The rate limiter skips the line-rate clamp during a recovery
			// stage: the sending rate doubles past the configured maximum
			// until the next limiter update re-clamps it, so the sweep runs
			// every cycle to observe the breach.
			name: "RateOverflow/dcqcn-rate",
			want: check.MonDCQCNRate,
			opts: harness.BuildOpts{
				Net: harness.Mesh2D(), Kind: harness.DCQCN,
				Program: only(map[int]node.Program{
					0: burst(30, 1, false),
					1: drainUntil(15000, 100),
				}),
				Faults: harness.Faults{Node: 0, DCQCN: nic.DCQCNMutations{RateOverflow: true}},
			},
			interval: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { runMutation(t, tc) })
	}
}

// TestHealthyRunIsClean is the control: the same monitors over an
// unmutated bulk-heavy workload stay silent and the run completes.
func TestHealthyRunIsClean(t *testing.T) {
	var got []check.Violation
	opts := nifdyOpts(
		core.Config{O: 8, B: 8, D: 1, W: 4},
		map[int]node.Program{
			0: burst(12, 1, true),
			2: burst(6, 1, false),
			1: drainUntil(15000, 100),
		})
	opts.Check = &check.Options{
		Sequence: true, InOrder: true,
		OnViolation: func(v check.Violation) { got = append(got, v) },
	}
	s := harness.Build(opts)
	defer s.Close()
	ok, end := s.RunUntilDone(60000)
	if !ok {
		t.Fatalf("healthy run did not finish by cycle %d", end)
	}
	// Let in-flight packets land before the loss check.
	for i := 0; i < 2000 && len(got) == 0; i++ {
		s.Eng.Step()
	}
	s.Checker.Finish(s.Eng.Now())
	if len(got) != 0 {
		t.Fatalf("healthy run reported violations: %v", got)
	}
	if s.Checker.Sweeps() == 0 {
		t.Fatal("checker never swept")
	}
}
