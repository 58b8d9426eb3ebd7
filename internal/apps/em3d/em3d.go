// Package em3d implements the communication kernel of EM3D, the
// three-dimensional electromagnetics benchmark of [CDG+93] used in the
// paper's §4.4. A bipartite graph of E and H nodes is distributed across
// processors; each iteration, every processor pushes one value per remote
// edge to the edge's owner, in 6-word packets, with a global barrier per
// iteration. The graph generator follows the benchmark's parameters:
//
//	n_nodes   — graph nodes per processor
//	d_nodes   — edges (degree) per graph node
//	local_p   — percentage of edges that stay on-processor
//	dist_span — remote edges land within ±dist_span processors
//
// Figure 7 uses (200, 10, 80, 5): mostly-local, light communication.
// Figure 8 uses (100, 20, 3, 20): almost every edge remote, heavy
// communication. Values to the same remote processor are batched into
// multi-packet messages by the message layer, which models the in-order
// delivery payoff exactly as package cshift does.
package em3d

import (
	"nifdy/internal/msg"
	"nifdy/internal/node"
	"nifdy/internal/packet"
	"nifdy/internal/rng"
)

// Config parameterizes an EM3D run.
type Config struct {
	// Nodes is the machine size P.
	Nodes int
	// NNodes, DNodes, LocalP, DistSpan are the graph parameters above.
	NNodes, DNodes, LocalP, DistSpan int
	// Iters is the number of simulated iterations; zero selects 3.
	Iters int
	// Words is the packet size; zero selects 6.
	Words int
	// InOrder marks the message layer as relying on in-order delivery.
	InOrder bool
	// Bulk lets multi-packet messages request bulk dialogs.
	Bulk bool
	// Seed drives graph generation.
	Seed uint64
}

// Light returns Figure 7's graph parameters ("less communication") for n
// processors.
func Light(n int, seed uint64) Config {
	return Config{Nodes: n, NNodes: 200, DNodes: 10, LocalP: 80, DistSpan: 5, Seed: seed}
}

// Heavy returns Figure 8's parameters ("more communication").
func Heavy(n int, seed uint64) Config {
	return Config{Nodes: n, NNodes: 100, DNodes: 20, LocalP: 3, DistSpan: 20, Seed: seed}
}

func (c *Config) defaults() {
	if c.Iters == 0 {
		c.Iters = 3
	}
	if c.Words == 0 {
		c.Words = 6
	}
}

// App holds the distributed graph's communication schedule.
type App struct {
	cfg   Config
	layer *msg.Layer
	bar   *node.Barrier
	// sendWords[i] maps destination -> value words per iteration.
	sendWords []map[int]int
	// expect[i] is the packets processor i receives per iteration.
	expect []int
	// pktsPerIter[i] is the packets processor i sends per iteration.
	pktsPerIter []int
	recvd       []int
}

// New generates the graph and returns the app.
func New(cfg Config, ids *packet.IDSource) *App {
	cfg.defaults()
	mcfg := msg.Config{Words: cfg.Words, InOrder: cfg.InOrder, BulkThreshold: 3}
	if !cfg.Bulk {
		mcfg.BulkThreshold = -1
	}
	a := &App{cfg: cfg, layer: msg.New(mcfg, ids), bar: node.NewBarrier(cfg.Nodes),
		recvd: make([]int, cfg.Nodes), expect: make([]int, cfg.Nodes),
		pktsPerIter: make([]int, cfg.Nodes)}
	a.sendWords = make([]map[int]int, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		r := rng.NewStream(cfg.Seed^0xE3D, uint64(i))
		m := map[int]int{}
		for gn := 0; gn < cfg.NNodes; gn++ {
			for e := 0; e < cfg.DNodes; e++ {
				if r.Intn(100) < cfg.LocalP {
					continue // local edge: no communication
				}
				off := r.IntRange(1, cfg.DistSpan)
				if r.Bool(0.5) {
					off = -off
				}
				dst := ((i+off)%cfg.Nodes + cfg.Nodes) % cfg.Nodes
				if dst != i {
					m[dst]++
				}
			}
		}
		a.sendWords[i] = m
	}
	for i, m := range a.sendWords {
		// Dense index walk, not a map range: the sums are commutative, but
		// keeping the aggregation order-deterministic costs nothing.
		for dst := 0; dst < cfg.Nodes; dst++ {
			words, ok := m[dst]
			if !ok {
				continue
			}
			n := a.layer.Config().PacketsFor(words)
			a.pktsPerIter[i] += n
			a.expect[dst] += n
		}
	}
	return a
}

func (a *App) payload() int { return a.layer.Config().Payload() }

// RemoteEdges reports the total remote edges (communication volume check).
func (a *App) RemoteEdges() int {
	total := 0
	for _, m := range a.sendWords {
		for dst := 0; dst < a.cfg.Nodes; dst++ {
			total += m[dst]
		}
	}
	return total
}

// PacketsPerIteration reports the machine-wide packets sent each iteration.
func (a *App) PacketsPerIteration() int {
	total := 0
	for _, n := range a.pktsPerIter {
		total += n
	}
	return total
}

// Program returns node n's program: per iteration, push every remote edge
// value grouped by destination, drain arrivals, and join the barrier. It runs
// as a step machine, engine-side.
func (a *App) Program(n int) node.Program {
	// Deterministic destination order: ascending offset from self.
	var order []int
	for off := 1; off < a.cfg.Nodes; off++ {
		dst := (n + off) % a.cfg.Nodes
		if a.sendWords[n][dst] > 0 {
			order = append(order, dst)
		}
	}
	m := &machine{a: a, n: n, order: order}
	// The arrival handler, bound once.
	m.count = func(*packet.Packet) { a.recvd[n]++ }
	return func(p *node.Proc) { p.Run(m) }
}

// em3dPC is where a machine resumes.
type em3dPC uint8

const (
	iteration em3dPC = iota // an iteration begins, or the program ends
	block                   // the next destination's block begins
	sending                 // a block is being sent
	absorb                  // the iteration's inbound volume is drained
)

// machine is one node's program.
type machine struct {
	a     *App
	n     int
	order []int
	count func(*packet.Packet)
	pc    em3dPC
	// it is the iteration and k the next destination in order.
	it, k int
	send  msg.Sender
	// recv marks a Recv in flight: it is counted at the next step.
	recv bool
}

// Step implements node.Machine.
func (m *machine) Step(p *node.Proc) bool {
	a := m.a
	for {
		switch m.pc {
		case iteration:
			if m.it == a.cfg.Iters {
				return false
			}
			m.k = 0
			m.pc = block
		case block:
			if m.k == len(m.order) {
				m.pc = absorb
				continue
			}
			dst := m.order[m.k]
			m.k++
			a.layer.Begin(&m.send, m.n, dst, a.sendWords[m.n][dst], m.count)
			m.pc = sending
		case sending:
			if m.send.Step(p) {
				return true
			}
			m.pc = block
		case absorb:
			// Absorb this iteration's inbound volume, then synchronize.
			if m.recv {
				p.Received()
				a.recvd[m.n]++
			}
			m.recv = a.recvd[m.n] < (m.it+1)*a.expect[m.n]
			if m.recv {
				p.IssueRecv()
				return true
			}
			m.it++
			m.pc = iteration
			p.IssueBarrier(a.bar, m.count)
			return true
		}
	}
}
