// Package msg is the software communication layer the workloads share — the
// piece the paper calls "the software communication layer" in §2.2. It
// decides how a block of payload words becomes packets:
//
//   - With in-order delivery guaranteed (a NIFDY NIC, or a single-path
//     fabric), the first packet of a block carries the setup information and
//     later packets are pure payload: Words-1 data words per packet, and no
//     software reordering at the receiver.
//   - Without it, every packet needs bookkeeping (sequence/offset) so the
//     receiver can reconstruct the transfer: Words-2 data words per packet,
//     plus the [KC94]-style software reorder cost on every receive
//     (node.TagNeedsReorder).
//
// The layer also implements §2.2's bulk-dialog convention: for transfers of
// at least BulkThreshold packets it sets the bulk-request bit on every
// packet except the last, whose missing bit tells the NIFDY unit to raise
// bulk-exit and close the dialog.
package msg

import (
	"nifdy/internal/node"
	"nifdy/internal/packet"
)

// Config parameterizes the layer.
type Config struct {
	// Words is the packet size in 32-bit words including header; zero
	// selects 6 (the CMAM/Split-C size).
	Words int
	// InOrder marks delivery as in-order: bigger payload, no reorder cost.
	InOrder bool
	// BulkThreshold is the minimum transfer length, in packets, that
	// requests a bulk dialog; zero selects 3; negative disables requests.
	BulkThreshold int
	// Class is the logical network for data; the zero value is Request.
	Class packet.Class
}

func (c *Config) defaults() {
	if c.Words == 0 {
		c.Words = 6
	}
	if c.BulkThreshold == 0 {
		c.BulkThreshold = 3
	}
}

// Payload reports data words carried per packet.
func (c Config) Payload() int {
	cc := c
	cc.defaults()
	if cc.InOrder {
		return cc.Words - 1
	}
	return cc.Words - 2
}

// PacketsFor reports the packets needed to move words payload words.
func (c Config) PacketsFor(words int) int {
	per := c.Payload()
	return (words + per - 1) / per
}

// Layer builds packets for blocks of data. One Layer is shared by all nodes
// of a simulation (the engine serializes node execution, so no locking).
type Layer struct {
	cfg    Config
	ids    *packet.IDSource
	msgSeq uint64
}

// New returns a Layer; a private ID source is used when ids is nil.
func New(cfg Config, ids *packet.IDSource) *Layer {
	cfg.defaults()
	if ids == nil {
		ids = &packet.IDSource{}
	}
	return &Layer{cfg: cfg, ids: ids}
}

// Config returns the layer's effective configuration.
func (l *Layer) Config() Config { return l.cfg }

// Block is a prepared transfer.
type Block struct {
	Packets []*packet.Packet
}

// Prepare builds the packets for a words-long block from src to dst.
//
//lint:allow(hotalloc) a block's packets are the application's data, fresh per transfer: the apps' receivers retire none to a free-list
func (l *Layer) Prepare(src, dst, words int) Block {
	l.msgSeq++
	n := l.cfg.PacketsFor(words)
	bulk := l.cfg.BulkThreshold > 0 && n >= l.cfg.BulkThreshold
	ps := make([]*packet.Packet, n)
	for i := 0; i < n; i++ {
		p := &packet.Packet{
			ID: l.ids.Next(), Src: src, Dst: dst, Words: int32(l.cfg.Words),
			Class: l.cfg.Class, Dialog: packet.NoDialog,
			BulkReq: bulk && i < n-1,
			Meta:    packet.Meta{MsgID: l.msgSeq, Index: int32(i), Total: int32(n)},
		}
		if !l.cfg.InOrder && n > 1 {
			p.Meta.Tag = node.TagNeedsReorder
		}
		ps[i] = p
	}
	return Block{Packets: ps}
}

// SendBlock sends a words-long block from p's node to dst, servicing
// arrivals between packets through sink (nil drops them). It returns the
// number of packets sent.
func (l *Layer) SendBlock(p *node.Proc, dst, words int, sink func(*packet.Packet)) int {
	b := l.Prepare(p.ID(), dst, words)
	for _, pk := range b.Packets {
		p.Send(pk)
		l.DrainInto(p, sink)
	}
	return len(b.Packets)
}

// DrainInto receives every currently pending packet into sink (nil drops).
func (l *Layer) DrainInto(p *node.Proc, sink func(*packet.Packet)) int {
	n := 0
	for p.HasPending() {
		pk := p.Recv()
		if sink != nil {
			sink(pk)
		}
		n++
	}
	return n
}

// Drain is DrainInto's step form: a node.Machine that receives every
// currently pending packet into Sink (nil drops) and ends when none is.
type Drain struct {
	Sink func(*packet.Packet)
	// recv marks a Recv in flight: its packet goes to Sink at the next step.
	recv bool
}

// Step implements node.Machine.
func (d *Drain) Step(p *node.Proc) bool {
	if d.recv {
		if pk := p.Received(); d.Sink != nil {
			d.Sink(pk)
		}
	}
	d.recv = p.HasPending()
	if d.recv {
		p.IssueRecv()
	}
	return d.recv
}

// Sender is SendBlock's step form: a node.Machine that sends the block Begin
// prepared, draining arrivals after every packet, and ends after the last
// packet's drain.
type Sender struct {
	pkts  []*packet.Packet
	next  int
	drain Drain
}

// Begin prepares a words-long block from src to dst for s to send, servicing
// arrivals through sink (nil drops them).
func (l *Layer) Begin(s *Sender, src, dst, words int, sink func(*packet.Packet)) {
	s.pkts, s.next = l.Prepare(src, dst, words).Packets, 0
	s.drain = Drain{Sink: sink}
}

// Step implements node.Machine.
func (s *Sender) Step(p *node.Proc) bool {
	if s.next > 0 && s.drain.Step(p) {
		return true
	}
	if s.next == len(s.pkts) {
		return false
	}
	p.IssueSend(s.pkts[s.next])
	s.next++
	return true
}
