// Package radix implements the communication phases of the radix sort of
// [Dus94] used in the paper's §4.5.
//
// Scan: a prefix sum across processors for every bucket of the radix. With
// an 8-bit radix there are 256 bucket counts; packed into 6-word packets
// they form a K-packet pipeline along the processor line: processor i
// receives partial sums from i-1, adds its own counts, and forwards to i+1.
// The paper's key observation: without artificial delays between
// consecutive sends, an upstream processor can swamp its successor — the
// receiver never gets a chance to send and the whole scan serializes.
// NIFDY's one-outstanding-packet protocol imposes exactly the right pacing
// automatically (Figure 9).
//
// Coalesce: every key is sent to its destination processor as a one-packet
// message to a pseudo-random destination. There is little congestion and no
// ordering requirement, so NIFDY neither helps nor hurts (§4.5).
package radix

import (
	"nifdy/internal/node"
	"nifdy/internal/packet"
	"nifdy/internal/rng"
	"nifdy/internal/sim"
)

// Config parameterizes the radix-sort phases.
type Config struct {
	// Nodes is the machine size P.
	Nodes int
	// Buckets is 2^radix; zero selects 256 (8-bit radix, §4.5).
	Buckets int
	// Words is the packet size; zero selects 6.
	Words int
	// Delay inserts this many cycles between consecutive scan sends (the
	// "With Delay" variant of Figure 9).
	Delay sim.Cycle
	// KeysPerNode is the coalesce-phase key count per processor; zero
	// selects 128.
	KeysPerNode int
	// Seed drives the coalesce key distribution.
	Seed uint64
}

func (c *Config) defaults() {
	if c.Buckets == 0 {
		c.Buckets = 256
	}
	if c.Words == 0 {
		c.Words = 6
	}
	if c.KeysPerNode == 0 {
		c.KeysPerNode = 128
	}
}

// App builds scan or coalesce programs.
type App struct {
	cfg Config
	ids *packet.IDSource
	// K is the scan pipeline depth in packets.
	K int
	// coalesce bookkeeping
	expect []int
	recvd  []int
	bar    *node.Barrier
}

// New returns a radix app.
func New(cfg Config, ids *packet.IDSource) *App {
	cfg.defaults()
	if ids == nil {
		ids = &packet.IDSource{}
	}
	a := &App{cfg: cfg, ids: ids, bar: node.NewBarrier(cfg.Nodes)}
	countsPerPkt := cfg.Words - 2 // header + bucket-range tag
	a.K = (cfg.Buckets + countsPerPkt - 1) / countsPerPkt
	a.expect = make([]int, cfg.Nodes)
	a.recvd = make([]int, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		r := rng.NewStream(cfg.Seed^0x4AD1, uint64(i))
		for k := 0; k < cfg.KeysPerNode; k++ {
			a.expect[r.Intn(cfg.Nodes)]++
		}
	}
	return a
}

// ScanPackets reports the pipeline depth K.
func (a *App) ScanPackets() int { return a.K }

// ScanProgram returns node n's scan-phase program: its step machine, run
// engine-side.
func (a *App) ScanProgram(n int) node.Program {
	m := &scan{a: a, n: n}
	return func(p *node.Proc) { p.Run(m) }
}

// scanPC is where a scan machine resumes.
type scanPC uint8

const (
	scanNext scanPC = iota // packet j's turn begins, or the program ends
	scanRecv               // packet j's partial sums arrived from upstream
	scanSend               // packet j goes downstream
	scanSent               // packet j was sent; the optional delay follows
)

// scan is one node's scan program: node 0 sends its K packets, the last node
// receives K, and every node between receives each packet, adds its local
// counts and forwards it.
type scan struct {
	a  *App
	n  int
	pc scanPC
	j  int
}

// Step implements node.Machine.
func (m *scan) Step(p *node.Proc) bool {
	a, cfg := m.a, m.a.cfg
	for {
		switch m.pc {
		case scanNext:
			if m.j == a.K {
				return false
			}
			m.pc = scanSend
			if m.n != 0 {
				m.pc = scanRecv
				p.IssueRecv()
				return true
			}
		case scanRecv:
			p.Received()
			m.pc = scanSend
			if m.n == cfg.Nodes-1 {
				m.j++
				m.pc = scanNext
			}
		case scanSend:
			m.pc = scanSent
			p.IssueSend(a.packet(m.n, m.n+1, packet.Meta{Index: int32(m.j), Total: int32(a.K)}))
			return true
		case scanSent:
			m.j++
			m.pc = scanNext
			if cfg.Delay > 0 {
				p.IssueConsume(cfg.Delay)
				return true
			}
		}
	}
}

// packet returns a fresh packet from src to dst.
//
//lint:allow(hotalloc) the phase's packets are its data, one per send: receivers retire none to a free-list
func (a *App) packet(src, dst int, meta packet.Meta) *packet.Packet {
	return &packet.Packet{ID: a.ids.Next(), Src: src, Dst: dst,
		Words: int32(a.cfg.Words), Class: packet.Request, Dialog: packet.NoDialog,
		Meta: meta}
}

// CoalesceProgram returns node n's coalesce-phase program: one single-packet
// message per key to its destination processor. It runs as a step machine,
// engine-side.
func (a *App) CoalesceProgram(n int) node.Program {
	m := &coalesce{a: a, n: n, r: rng.NewStream(a.cfg.Seed^0x4AD1, uint64(n))}
	// The barrier's arrival handler, bound once.
	m.count = func(*packet.Packet) { a.recvd[n]++ }
	return func(p *node.Proc) { p.Run(m) }
}

// coalescePC is where a coalesce machine resumes.
type coalescePC uint8

const (
	coalesceKey    coalescePC = iota // the next key is sent, or the keys are done
	coalesceDrain                    // arrivals are serviced after a send
	coalesceAbsorb                   // the node's expected keys are received
	coalesceEnd                      // the closing barrier released
)

// coalesce is one node's coalesce program.
type coalesce struct {
	a     *App
	n     int
	r     *rng.Source
	count func(*packet.Packet)
	pc    coalescePC
	k     int
	// recv marks a Recv in flight: it is counted at the next step.
	recv bool
}

// Step implements node.Machine.
func (m *coalesce) Step(p *node.Proc) bool {
	a, cfg := m.a, m.a.cfg
	if m.recv {
		p.Received()
		a.recvd[m.n]++
		m.recv = false
	}
	for {
		switch m.pc {
		case coalesceKey:
			if m.k == cfg.KeysPerNode {
				m.pc = coalesceAbsorb
				continue
			}
			k := m.k
			m.k++
			dst := m.r.Intn(cfg.Nodes)
			if dst == m.n {
				a.recvd[m.n]++ // local key, no packet
				continue
			}
			m.pc = coalesceDrain
			p.IssueSend(a.packet(m.n, dst, packet.Meta{Value: uint64(k)}))
			return true
		case coalesceDrain:
			if !p.HasPending() {
				m.pc = coalesceKey
				continue
			}
			m.recv = true
			p.IssueRecv()
			return true
		case coalesceAbsorb:
			if a.recvd[m.n] < a.expect[m.n] {
				m.recv = true
				p.IssueRecv()
				return true
			}
			m.pc = coalesceEnd
			p.IssueBarrier(a.bar, m.count)
			return true
		case coalesceEnd:
			return false
		}
	}
}
