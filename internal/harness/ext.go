package harness

import (
	"nifdy/internal/core"
	"nifdy/internal/node"
	"nifdy/internal/packet"
	"nifdy/internal/sim"
	"nifdy/internal/stats"
	"nifdy/internal/traffic"
)

// LossyOpts parameterizes the §6.2 lossy-network extension experiment.
type LossyOpts struct {
	Drops     []float64 // drop probabilities; default {0, 0.01, 0.05, 0.1}
	Seed      uint64
	Messages  int       // messages per node; default 20
	MaxCycles sim.Cycle // default 40,000,000
}

// lossyTimeout is ExtLossy's retransmission timeout.
const lossyTimeout sim.Cycle = 3000

func (o *LossyOpts) defaults() {
	if o.Drops == nil {
		o.Drops = []float64{0, 0.01, 0.05, 0.1}
	}
	if o.Seed == 0 {
		o.Seed = 1995
	}
	if o.Messages == 0 {
		o.Messages = 20
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 40_000_000
	}
}

// ExtLossy runs NIFDY with retransmission over an increasingly lossy mesh
// and reports completion time, retransmissions, and duplicates discarded —
// the §6.2 claim is exactly-once delivery with graceful degradation.
func ExtLossy(o LossyOpts) *stats.Table {
	o.defaults()
	t := stats.NewTable("§6.2 extension: NIFDY over a lossy network (8x8 mesh)",
		"drop prob", "cycles", "sent", "delivered", "retransmits", "dups discarded", "done")
	type res struct {
		cyc                   sim.Cycle
		sent, acc, retx, dups int64
		done                  bool
	}
	results := make([]res, len(o.Drops))
	cells := make([]cell, len(o.Drops))
	for i, dp := range o.Drops {
		tcfg := traffic.Heavy(64, o.Seed)
		tcfg.Phases = 1
		tcfg.PacketsPerPhase = o.Messages
		cells[i] = cell{
			opts: BuildOpts{Net: Mesh2D(), Kind: NIFDY, Seed: o.Seed, Drop: dp,
				Params:  core.Config{O: 4, B: 4, D: 1, W: 2, Retransmit: true, RetransmitTimeout: lossyTimeout},
				Program: traffic.NewGen(tcfg, nil).Program},
			budget: o.MaxCycles, untilDone: true,
			read: func(s *Sim) {
				done := s.Done()
				// Programs finish when their last packet enters the NIC; keep
				// the receivers pulling until every retransmission lands and
				// the NICs drain, so "delivered" really means exactly-once
				// delivery of everything sent.
				drained := s.Eng.RunUntil(func() bool {
					now := s.Eng.Now()
					idle := true
					for _, nc := range s.NICs {
						for {
							if _, ok := nc.Recv(now); !ok {
								break
							}
						}
						if !nc.Idle() {
							idle = false
						}
					}
					return idle
				}, o.MaxCycles)
				agg := s.AggregateStats()
				results[i] = res{s.Eng.Now(), agg.Sent, agg.Accepted, agg.Retransmits, agg.Duplicates, done && drained}
			},
		}
	}
	runCells(cells)
	for i, dp := range o.Drops {
		r := results[i]
		t.Row(dp, r.cyc, r.sent, r.acc, r.retx, r.dups, r.done)
	}
	return t
}

// AckOpts parameterizes the ack-strategy ablations (footnote 2, §2.4.2,
// §6.1).
type AckOpts struct {
	Cycles sim.Cycle // default 400,000
	Seed   uint64
}

func (o *AckOpts) defaults() {
	if o.Cycles == 0 {
		o.Cycles = 400_000
	}
	if o.Seed == 0 {
		o.Seed = 1995
	}
}

// trafficCell is one cell of the AckOpts studies: endless traffic tcfg on
// spec for o.Cycles.
func trafficCell(o AckOpts, spec NetSpec, kind NICKind, params core.Config, tcfg traffic.Config, read func(*Sim)) cell {
	return cell{
		opts:   BuildOpts{Net: spec, Kind: kind, Seed: o.Seed, Params: params, Program: endless(tcfg)},
		budget: o.Cycles,
		read:   read,
	}
}

// ExtAckStrategies compares NIFDY variants: ack on processor accept
// (default) vs ack on arrival, and combined W/2 bulk acks vs per-packet
// (ExtPiggyback measures piggybacked acks).
func ExtAckStrategies(o AckOpts) *stats.Table {
	o.defaults()
	// The full fat tree's tuned window (W=4) separates combined (one ack
	// per W/2=2 packets) from per-packet acknowledgment; the CM-5 tree's
	// W=2 would make the two identical.
	t := stats.NewTable("Ack strategy ablations (heavy traffic, full fat tree)",
		"variant", "packets delivered", "acks on wire")
	spec := FullFatTree()
	type variant struct {
		name string
		cfg  core.Config
	}
	base := spec.Params
	onArr := base
	onArr.AckOnArrival = true
	perPkt := base
	perPkt.PerPacketBulkAcks = true
	variants := []variant{
		{"ack on accept (default)", base},
		{"ack on arrival (footnote 2)", onArr},
		{"per-packet bulk acks (§2.4.2)", perPkt},
	}
	type res struct{ acc, acks int64 }
	results := make([]res, len(variants))
	cells := make([]cell, len(variants))
	for i, v := range variants {
		cells[i] = trafficCell(o, spec, NIFDY, v.cfg, traffic.Heavy(64, o.Seed), func(s *Sim) {
			agg := s.AggregateStats()
			results[i] = res{agg.Accepted, agg.AcksSent}
		})
	}
	runCells(cells)
	for i, v := range variants {
		t.Row(v.name, results[i].acc, results[i].acks)
	}
	return t
}

// ExtPiggyback measures ack traffic with and without §6.1 piggybacking
// under request-reply load on the full fat tree.
func ExtPiggyback(o AckOpts) *stats.Table {
	o.defaults()
	t := stats.NewTable("§6.1 extension: piggybacked acks (request-reply load)",
		"variant", "replies completed", "standalone acks on wire")
	type res struct{ done, acks int64 }
	piggyCell := func(piggy bool, r *res) cell {
		spec := FullFatTree()
		params := spec.Params
		params.Piggyback = piggy
		const pairs = 32 // node i <-> node i+32 request/reply
		var seqs [64]uint64
		return cell{
			opts: BuildOpts{Net: spec, Kind: NIFDY, Seed: o.Seed, Params: params,
				Program: func(n int) node.Program {
					if n < pairs {
						return func(p *node.Proc) {
							var ids packet.IDSource
							for {
								p.Send(&packet.Packet{ID: uint64(n)<<32 | ids.Next(),
									Src: n, Dst: n + pairs, Words: 6,
									Class: packet.Request, Dialog: packet.NoDialog})
								p.Recv() // wait for the reply
								seqs[n]++
							}
						}
					}
					return func(p *node.Proc) {
						var ids packet.IDSource
						for {
							req := p.Recv()
							p.Send(&packet.Packet{ID: uint64(n)<<32 | ids.Next(),
								Src: n, Dst: req.Src, Words: 6,
								Class: packet.Reply, Dialog: packet.NoDialog})
						}
					}
				}},
			budget: o.Cycles,
			read: func(s *Sim) {
				for _, v := range seqs {
					r.done += int64(v)
				}
				// Standalone acks = ack packets that physically traveled.
				for n := 0; n < 64; n++ {
					inj, _, _ := s.Net.Iface(n).Stats()
					r.acks += inj
				}
				r.acks -= s.AggregateStats().Injected // subtract data packets
			},
		}
	}
	var plain, piggy res
	runCells([]cell{piggyCell(false, &plain), piggyCell(true, &piggy)})
	t.Row("standalone acks", plain.done, plain.acks)
	t.Row("piggybacked (§6.1)", piggy.done, piggy.acks)
	return t
}

// ExtAdaptiveMesh is the §6.3 future-work study: dimension-order versus
// west-first adaptive routing on the 8x8 mesh, with and without NIFDY,
// under heavy synthetic traffic. The paper conjectured that "adding the
// admission control and in-order delivery of NIFDY may help adaptive
// routing reach its potential".
func ExtAdaptiveMesh(o AckOpts) *stats.Table {
	o.defaults()
	t := stats.NewTable("§6.3 extension: adaptive routing on the mesh (heavy traffic)",
		"routing", "none", "buffers", "NIFDY")
	specs := []NetSpec{Mesh2D(), AdaptiveMesh2D()}
	results := make([][3]int64, len(specs))
	var cells []cell
	for i, spec := range specs {
		for k, kind := range paperKinds {
			cells = append(cells, trafficCell(o, spec, kind, core.Config{}, traffic.Heavy(64, o.Seed), accepted(&results[i][k])))
		}
	}
	runCells(cells)
	for i, spec := range specs {
		t.Row(spec.Name, results[i][0], results[i][1], results[i][2])
	}
	return t
}

// ExtHotspot studies the hot-spot congestion source of §1.1: a fraction of
// all messages converge on one receiver while the rest stay uniform. NIFDY
// limits each sender to one outstanding packet toward the saturated node,
// so the hot spot stops spilling congestion onto bystander traffic.
func ExtHotspot(o AckOpts) *stats.Table {
	o.defaults()
	t := stats.NewTable("§1.1 hot-spot study: heavy traffic with a hot receiver (8x8 mesh)",
		"hotspot share", "none", "buffers", "NIFDY", "bystander none", "bystander NIFDY", "bystander ratio")
	shares := []float64{0, 0.1, 0.25}
	type res struct{ total, bystander int64 }
	results := make([][3]res, len(shares))
	var cells []cell
	for i, share := range shares {
		for k, kind := range paperKinds {
			tcfg := traffic.Heavy(64, o.Seed)
			tcfg.HotspotProb = share
			tcfg.HotspotNode = 27 // interior node: worst-case mesh hot spot
			cells = append(cells, trafficCell(o, Mesh2D(), kind, core.Config{}, tcfg, func(s *Sim) {
				total := s.Accepted()
				hot := s.NICs[27].Stats().Accepted
				results[i][k] = res{total, total - hot}
			}))
		}
	}
	runCells(cells)
	for i, share := range shares {
		r := results[i]
		t.Row(share, r[0].total, r[1].total, r[2].total,
			r[0].bystander, r[2].bystander, ratio(r[2].bystander, r[0].bystander))
	}
	return t
}

// ExtFaults studies the fault congestion source of §1.1: top-level routers
// of the full fat tree are disconnected, shrinking the bisection, while the
// adaptive up-routing steers around them. NIFDY's admission control adapts
// to the reduced capacity without any reconfiguration.
func ExtFaults(o AckOpts) *stats.Table {
	o.defaults()
	t := stats.NewTable("§1.1 fault study: full fat tree with dead top-level routers",
		"dead top routers", "none", "buffers", "NIFDY", "NIFDY/none")
	kills := []int{0, 4, 8}
	results := make([][3]int64, len(kills))
	var cells []cell
	for i, kill := range kills {
		for k, kind := range paperKinds {
			cells = append(cells, trafficCell(o, FaultyFatTree(kill), kind, core.Config{}, traffic.Heavy(64, o.Seed), accepted(&results[i][k])))
		}
	}
	runCells(cells)
	for i, kill := range kills {
		r := results[i]
		t.Row(kill, r[0], r[1], r[2], ratio(r[2], r[0]))
	}
	return t
}
