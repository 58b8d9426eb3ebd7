// Package cshift implements the cyclic-shift all-to-all communication
// pattern studied in [BK94] and in the paper's §4.3: P-1 phases, where in
// phase p processor i sends a data block to processor (i+p) mod P. When the
// phases are not separated by barriers, nodes finishing early move on and
// two senders converge on one receiver, which snowballs (Figure 5); Strata's
// fix is optimized barriers, NIFDY's is admission control (Figure 6).
//
// Packetization, bulk-dialog requests, and the in-order delivery payoff
// (§2.2) are handled by the shared software communication layer
// (internal/msg).
package cshift

import (
	"nifdy/internal/msg"
	"nifdy/internal/node"
	"nifdy/internal/packet"
)

// Config parameterizes a C-shift run.
type Config struct {
	// Nodes is the machine size P.
	Nodes int
	// BlockWords is the per-phase data block size in words; zero selects 120.
	BlockWords int
	// Words is the packet size; zero selects 6 (the CMAM/Split-C size, §3).
	Words int
	// Barriers inserts a global barrier between phases (the [BK94] fix).
	Barriers bool
	// InOrder marks the message layer as relying on in-order delivery:
	// bigger payload per packet and no receive-side reorder penalty. Use it
	// with NIFDY or with fabrics that are in-order by construction.
	InOrder bool
	// Bulk lets multi-packet blocks request bulk dialogs.
	Bulk bool
}

func (c *Config) defaults() {
	if c.BlockWords == 0 {
		c.BlockWords = 120
	}
	if c.Words == 0 {
		c.Words = 6
	}
}

// App builds the per-node programs for one run.
type App struct {
	cfg   Config
	layer *msg.Layer
	bar   *node.Barrier
	npkts int
	recvd []int
}

// New returns a C-shift app.
func New(cfg Config, ids *packet.IDSource) *App {
	cfg.defaults()
	mcfg := msg.Config{Words: cfg.Words, InOrder: cfg.InOrder, BulkThreshold: 3}
	if !cfg.Bulk {
		mcfg.BulkThreshold = -1
	}
	a := &App{
		cfg:   cfg,
		layer: msg.New(mcfg, ids),
		bar:   node.NewBarrier(cfg.Nodes),
		recvd: make([]int, cfg.Nodes),
	}
	a.npkts = a.layer.Config().PacketsFor(cfg.BlockWords)
	return a
}

// PacketsPerBlock reports the packets needed per block under this config.
func (a *App) PacketsPerBlock() int { return a.npkts }

// TotalPackets reports the run's total packet count (for throughput math).
func (a *App) TotalPackets() int { return a.cfg.Nodes * (a.cfg.Nodes - 1) * a.npkts }

// Program returns node n's program: its step machine, run engine-side.
func (a *App) Program(n int) node.Program {
	m := &machine{a: a, n: n}
	// The arrival handler, bound once.
	m.count = func(*packet.Packet) { a.recvd[n]++ }
	return func(p *node.Proc) { p.Run(m) }
}

// shiftPC is where a machine resumes.
type shiftPC uint8

const (
	phase   shiftPC = iota // the next phase's block begins, or the final drain
	sending                // the phase's block is being sent
	absorb                 // the final drain: every node absorbs its inbound volume
)

// machine is one node's program: one block per phase to the node ph hops
// on, optionally barrier-separated, then a drain to the full inbound volume.
type machine struct {
	a     *App
	n     int
	count func(*packet.Packet)
	pc    shiftPC
	ph    int
	send  msg.Sender
	// recv marks a Recv in flight: it is counted at the next step.
	recv bool
}

// Step implements node.Machine.
func (m *machine) Step(p *node.Proc) bool {
	a, cfg := m.a, m.a.cfg
	for {
		switch m.pc {
		case phase:
			m.ph++
			if m.ph == cfg.Nodes {
				m.pc = absorb
				continue
			}
			a.layer.Begin(&m.send, m.n, (m.n+m.ph)%cfg.Nodes, cfg.BlockWords, m.count)
			m.pc = sending
		case sending:
			if m.send.Step(p) {
				return true
			}
			m.pc = phase
			if cfg.Barriers {
				p.IssueBarrier(a.bar, m.count)
				return true
			}
		case absorb:
			if m.recv {
				p.Received()
				a.recvd[m.n]++
			}
			m.recv = a.recvd[m.n] < (cfg.Nodes-1)*a.npkts
			if m.recv {
				p.IssueRecv()
			}
			return m.recv
		}
	}
}
