// Package traffic implements the paper's synthetic bursty workloads (§4.1):
// phases separated by global barriers; sending nodes pick a random
// destination and message length, blast the message as fast as possible,
// and immediately move to the next message until the phase quota is done.
//
// Two standard patterns are provided. Heavy: every node sends each phase,
// message lengths uniform on [1,5] packets. Light: each node sends with
// probability 1/3 per phase, the length distribution includes 10- and
// 20-packet messages (most messages short, long messages carrying most
// packets), and nodes enter pseudo-random non-responsive periods during
// which they neither send nor pull from the network.
//
// Per-node dedicated PRNG streams guarantee the same burst sequence
// regardless of network and NIC configuration (§3).
package traffic

import (
	"nifdy/internal/node"
	"nifdy/internal/packet"
	"nifdy/internal/rng"
	"nifdy/internal/sim"
)

// Length is one entry of a message-length distribution.
type Length struct {
	Packets int
	Weight  int
}

// Config parameterizes the synthetic generator.
type Config struct {
	// Nodes is the machine size.
	Nodes int
	// Seed drives all per-node streams.
	Seed uint64
	// Phases is the number of barrier-separated phases.
	Phases int
	// PacketsPerPhase is each sending node's per-phase quota (the paper
	// uses "typically 100 to 300").
	PacketsPerPhase int
	// Words is the packet size in words; zero selects 8 (§3).
	Words int
	// SendProb is the probability a node sends in a phase (1 = heavy,
	// 1/3 = light).
	SendProb float64
	// Lengths is the message-length distribution.
	Lengths []Length
	// BulkThreshold: messages with at least this many packets request a
	// bulk dialog; zero disables bulk requests.
	BulkThreshold int
	// IgnoreProb is the per-message probability that a node takes a
	// non-responsive period of IgnoreLen cycles first (light traffic).
	IgnoreProb float64
	// IgnoreLen is the non-responsive period length in cycles.
	IgnoreLen sim.Cycle
	// HotspotProb skews destination selection: with this probability a
	// message targets HotspotNode instead of a uniform destination — the
	// hot-spot congestion source of §1.1.
	HotspotProb float64
	// HotspotNode is the hot destination.
	HotspotNode int
}

// Heavy returns the paper's heavy pattern for n nodes.
func Heavy(n int, seed uint64) Config {
	return Config{
		Nodes: n, Seed: seed, Phases: 4, PacketsPerPhase: 100, Words: 8,
		SendProb:      1.0,
		Lengths:       []Length{{1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1}},
		BulkThreshold: 3,
	}
}

// Light returns the paper's light pattern for n nodes.
func Light(n int, seed uint64) Config {
	return Config{
		Nodes: n, Seed: seed, Phases: 4, PacketsPerPhase: 100, Words: 8,
		SendProb: 1.0 / 3.0,
		Lengths: []Length{
			{1, 6}, {2, 4}, {3, 3}, {4, 2}, {5, 2}, {10, 2}, {20, 2},
		},
		BulkThreshold: 3,
		IgnoreProb:    0.15, IgnoreLen: 2000,
	}
}

func (c *Config) defaults() {
	if c.Words == 0 {
		c.Words = 8
	}
	if c.Phases == 0 {
		c.Phases = 1
	}
}

// Gen builds the per-node programs for one synthetic run. All programs share
// one barrier; the engine must run them together. Packet and message
// identities come from per-node ID spaces (packet.NewNodeIDs and a per-node
// message sequence salted with the node number), so identity assignment is
// independent of cross-node event order and race-free when nodes tick in
// different engine shards.
type Gen struct {
	cfg Config
	bar *node.Barrier
}

// NewGen returns a generator for cfg. The ids parameter is accepted for
// compatibility and no longer consulted — identities are always per-node.
func NewGen(cfg Config, ids *packet.IDSource) *Gen {
	cfg.defaults()
	_ = ids
	return &Gen{cfg: cfg, bar: node.NewBarrier(cfg.Nodes)}
}

// Machine returns node n's program as a step machine.
func (g *Gen) Machine(n int) node.Machine {
	weights := make([]int, len(g.cfg.Lengths))
	for i, l := range g.cfg.Lengths {
		weights[i] = l.Weight
	}
	return &genMachine{
		cfg: &g.cfg, bar: g.bar, n: n, weights: weights,
		r: rng.NewStream(g.cfg.Seed, uint64(n)), ids: packet.NewNodeIDs(n),
	}
}

// Program returns node n's program: a handover to its step machine, which
// runs engine-side.
func (g *Gen) Program(n int) node.Program {
	m := g.Machine(n)
	return func(p *node.Proc) { p.Run(m) }
}

// Drain returns a machine that runs m and then receives and retires packets
// until a window of cycles runs out, so packets still in flight when the
// workload proper ends are accepted before an end-to-end loss check. The
// window starts at m's end and, with restart, again at every arrival: the
// node leaves only after a full quiet period. Loss-recovery tails need the
// restart — a retransmission chain arrives in bursts spaced by the
// retransmit timeout, which a fixed window would cut off.
func Drain(m node.Machine, window sim.Cycle, restart bool) node.Machine {
	d := &drain{m: m, window: window, restart: restart}
	d.stop = d.expired
	return d
}

// drain is Drain's machine.
type drain struct {
	m       node.Machine
	window  sim.Cycle
	restart bool
	// p is nil until m ends; it and deadline are what stop, RecvOr's
	// predicate bound once, reads.
	p        *node.Proc
	deadline sim.Cycle
	stop     func() bool
}

// Step implements node.Machine.
func (d *drain) Step(p *node.Proc) bool {
	if d.p == nil {
		if d.m.Step(p) {
			return true
		}
		d.p, d.deadline = p, p.Now()+d.window
	} else {
		pk := p.Received()
		if pk == nil {
			return false
		}
		if d.restart {
			d.deadline = p.Now() + d.window
		}
		p.Free(pk)
	}
	p.IssueRecvOr(d.stop)
	return true
}

// expired reports whether the drain window has run out.
func (d *drain) expired() bool { return d.p.Now() >= d.deadline }

// genPC is where a genMachine resumes.
type genPC uint8

const (
	genStart   genPC = iota // the program begins
	genPhase                // a phase begins, or the program ends
	genMessage              // the quota check, then a message begins
	genDraw                 // the message's draws, after any non-responsive period
	genPacket               // the message's next packet is sent
	genDrain                // arrivals are serviced between sends
	genRetire               // a serviced arrival is retired
)

// genMachine is one node's program: phases of messages blasted as fast as
// possible, each phase ended by the shared barrier.
type genMachine struct {
	cfg     *Config
	bar     *node.Barrier
	n       int
	weights []int
	r       *rng.Source
	ids     *packet.IDSource
	// free is the barrier's handler, bound once.
	free func(*packet.Packet)

	pc     genPC
	phase  int
	sent   int
	msgSeq uint64
	// dst, length, msg and bulk describe the message being sent; i is its
	// next packet.
	dst, length, i int
	msg            uint64
	bulk           bool
}

// Step implements node.Machine.
func (m *genMachine) Step(p *node.Proc) bool {
	cfg := m.cfg
	for {
		switch m.pc {
		case genStart:
			m.free = p.Free
			m.pc = genPhase
		case genPhase:
			if m.phase == cfg.Phases {
				return false
			}
			m.phase++
			if m.r.Float64() < cfg.SendProb {
				m.sent = 0
				m.pc = genMessage
				continue
			}
			p.IssueBarrier(m.bar, m.free)
			return true
		case genMessage:
			if m.sent >= cfg.PacketsPerPhase {
				// Bulk-synchronous phase end: wait for everyone, servicing
				// (and retiring) arrivals while parked.
				m.pc = genPhase
				p.IssueBarrier(m.bar, m.free)
				return true
			}
			m.pc = genDraw
			if cfg.IgnoreProb > 0 && m.r.Float64() < cfg.IgnoreProb {
				// Non-responsive period: neither send nor pull.
				p.IssueConsume(cfg.IgnoreLen)
				return true
			}
		case genDraw:
			m.dst = m.r.Intn(cfg.Nodes - 1)
			if m.dst >= m.n {
				m.dst++
			}
			if cfg.HotspotProb > 0 && cfg.HotspotNode != m.n && m.r.Float64() < cfg.HotspotProb {
				m.dst = cfg.HotspotNode
			}
			m.length = cfg.Lengths[m.r.Pick(m.weights)].Packets
			m.msgSeq++
			m.msg = uint64(m.n)<<32 | m.msgSeq
			m.bulk = cfg.BulkThreshold > 0 && m.length >= cfg.BulkThreshold
			m.i = 0
			m.pc = genPacket
		case genPacket:
			if m.i == m.length {
				m.pc = genMessage
				continue
			}
			// Outgoing packets come from the node's free-list; they are
			// retired back into the receiving node's list below, so
			// saturated phases run allocation-free.
			pk := p.Alloc()
			pk.ID = m.ids.Next()
			pk.Src = m.n
			pk.Dst = m.dst
			pk.Words = int32(cfg.Words)
			pk.BulkReq = m.bulk && m.i < m.length-1
			pk.Meta = packet.Meta{MsgID: m.msg, Index: int32(m.i), Total: int32(m.length)}
			m.i++
			m.sent++
			m.pc = genDrain
			p.IssueSend(pk)
			return true
		case genDrain:
			// Service arrivals between sends so other senders' packets do
			// not rot in the arrivals queue.
			if !p.HasPending() {
				m.pc = genPacket
				continue
			}
			m.pc = genRetire
			p.IssueRecv()
			return true
		case genRetire:
			// The generator is a sink: a pulled packet is dead.
			p.Free(p.Received())
			m.pc = genDrain
		}
	}
}
