// Package packet defines the unit of data exchanged across the simulated
// networks: packets composed of one-word flits, carrying the NIFDY header
// bits (bulk request/exit, dialog and sequence numbers, grants) alongside a
// small application-visible payload descriptor.
//
// Sizes follow the paper: synthetic traffic uses 8-word packets including
// header (§3); the CMAM/Split-C workloads (C-shift, EM3D, radix sort) use
// 6-word packets; NIFDY acknowledgments are single-flit header-only packets
// that share the fabric with data (§2).
package packet

import (
	"fmt"

	"nifdy/internal/sim"
)

// Kind distinguishes data packets from NIFDY acknowledgments.
type Kind uint8

const (
	// Data is an application (scalar or bulk) packet.
	Data Kind = iota
	// Ack is a NIFDY acknowledgment, consumed by the receiving NIFDY unit.
	Ack
)

func (k Kind) String() string {
	switch k {
	case Data:
		return "data"
	case Ack:
		return "ack"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Class selects one of the two logically independent networks every
// topology provides to break fetch deadlock (§3).
type Class uint8

const (
	// Request is the network used by application request traffic.
	Request Class = iota
	// Reply is the network used by application replies and NIFDY acks.
	Reply
	// NumClasses is the number of logical networks.
	NumClasses = 2
)

func (c Class) String() string {
	switch c {
	case Request:
		return "request"
	case Reply:
		return "reply"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// GrantKind encodes the bulk-dialog response carried in an ack (§2.1.2).
type GrantKind uint8

const (
	// GrantNone: the ack carries no bulk-dialog information.
	GrantNone GrantKind = iota
	// Granted: the receiver granted a bulk dialog; Packet.Dialog holds its
	// number.
	Granted
	// Rejected: the receiver is at its dialog limit D; the sender continues
	// in scalar mode and may re-request.
	Rejected
)

func (g GrantKind) String() string {
	switch g {
	case GrantNone:
		return "none"
	case Granted:
		return "granted"
	case Rejected:
		return "rejected"
	default:
		return fmt.Sprintf("GrantKind(%d)", uint8(g))
	}
}

// NoDialog marks a packet outside any bulk dialog.
const NoDialog = -1

// WordBytes is the flit size: one 32-bit word (§2.4.3).
const WordBytes = 4

// Meta is the application-visible payload descriptor. Simulated packets do
// not carry real data; Meta carries just enough for workloads to reconstruct
// transfers and for the harness to audit delivery.
type Meta struct {
	// MsgID identifies the multi-packet message this packet belongs to.
	MsgID uint64
	// Value is a workload-defined scalar (e.g. a radix-sort key).
	Value uint64
	// Index is the packet's position within its message (0-based).
	Index int32
	// Total is the number of packets in the message.
	Total int32
	// Tag is a workload-defined handler identifier.
	Tag int32
}

// Packet is a simulated network packet. Fields are set by the sending NIC
// and workloads; timing fields are stamped as the packet moves.
//
// The layout is part of the simulator's memory budget: every NIC pool and
// the benchmark's pump slab are multiples of this struct. The header
// counters are int32 and the one-byte fields sit together after them, so
// the struct fits in 120 bytes (TestPacketSize).
type Packet struct {
	// ID is unique within a simulation, for auditing.
	ID uint64
	// Src and Dst are node numbers. Every packet carries its source in the
	// header so the destination can return an ack (§2.1.1).
	Src, Dst int

	// CreatedAt is when the workload handed the packet to the NIC;
	// InjectedAt when the first flit entered the fabric; DeliveredAt when
	// the packet reached the destination NIC; AcceptedAt when the processor
	// consumed it.
	CreatedAt, InjectedAt, DeliveredAt, AcceptedAt sim.Cycle

	// Meta is the application payload descriptor.
	Meta Meta

	// Words is the total packet length in 32-bit words, header included.
	Words int32
	// Dialog is the bulk dialog number for bulk data packets, or the granted
	// dialog number in an ack when Grant == Granted; NoDialog otherwise.
	Dialog int32
	// Seq is the sliding-window sequence number of a bulk data packet
	// (meaningful only when Dialog != NoDialog).
	Seq int32
	// CumSeq is, in a bulk ack, the cumulative sequence number: all packets
	// with Seq <= CumSeq have been received in order.
	CumSeq int32

	// Kind is Data or Ack.
	Kind Kind
	// Class selects the request or reply logical network.
	Class Class
	// Grant is the bulk-dialog response carried by an ack.
	Grant GrantKind

	// BulkReq is the bulk-request bit: the sender asks the receiver to grant
	// a bulk dialog (§2.1.2).
	BulkReq bool
	// BulkExit marks the last packet of a bulk dialog, freeing the dialog.
	BulkExit bool
	// ECN is the congestion-experienced mark: set by a router forwarding the
	// packet's head flit through a congested egress queue (router.FabricConfig.ECN),
	// echoed by the destination NIC as a CNP so a DCQCN-style sender can
	// reduce its rate.
	ECN bool
	// CNP marks an ack packet as a congestion notification (the echo of an
	// ECN mark) for the DCQCN rate-control NIC.
	CNP bool
	// Dup is the duplicate-detection bit used by the retransmission
	// extension for lossy networks (§6.2). It alternates per (sender,
	// receiver, slot) so the receiver can discard retransmitted copies of a
	// packet it already accepted.
	Dup bool
	// Retransmit marks a retransmitted copy (stats only).
	Retransmit bool
	// BulkAck marks an ack as a bulk-dialog cumulative (sliding window)
	// acknowledgment rather than a scalar per-packet acknowledgment.
	BulkAck bool
	// PiggyAck marks a data packet that doubles as an ack for the reverse
	// direction (§6.1 extension).
	PiggyAck bool
}

// Flits returns the number of one-word flits the packet occupies.
func (p *Packet) Flits() int { return int(p.Words) }

// Bytes returns the packet length in bytes.
func (p *Packet) Bytes() int { return int(p.Words) * WordBytes }

// InDialog reports whether the packet travels within a bulk dialog.
func (p *Packet) InDialog() bool { return p.Dialog != NoDialog }

// Validate checks internal consistency; workloads call it in tests.
func (p *Packet) Validate(numNodes int) error {
	if p.Src < 0 || p.Src >= numNodes {
		return fmt.Errorf("packet %d: src %d out of range [0,%d)", p.ID, p.Src, numNodes)
	}
	if p.Dst < 0 || p.Dst >= numNodes {
		return fmt.Errorf("packet %d: dst %d out of range [0,%d)", p.ID, p.Dst, numNodes)
	}
	if p.Words < 1 {
		return fmt.Errorf("packet %d: %d words", p.ID, p.Words)
	}
	if p.Kind == Ack && p.Words != 1 {
		return fmt.Errorf("packet %d: ack with %d words", p.ID, p.Words)
	}
	if p.Kind == Ack && p.Class != Reply {
		return fmt.Errorf("packet %d: ack on %v network", p.ID, p.Class)
	}
	if p.Dialog != NoDialog && p.Dialog < 0 {
		return fmt.Errorf("packet %d: dialog %d", p.ID, p.Dialog)
	}
	return nil
}

// String renders a compact debugging form.
func (p *Packet) String() string {
	s := fmt.Sprintf("%v#%d %d->%d w=%d", p.Kind, p.ID, p.Src, p.Dst, p.Words)
	if p.InDialog() {
		s += fmt.Sprintf(" dlg=%d seq=%d", p.Dialog, p.Seq)
	}
	if p.Kind == Ack && p.Grant != GrantNone {
		s += fmt.Sprintf(" grant=%v", p.Grant)
	}
	if p.BulkReq {
		s += " bulkreq"
	}
	if p.BulkExit {
		s += " bulkexit"
	}
	return s
}

// Flit is one word of a packet in flight. Head and tail flits delimit
// wormhole progress; the packet pointer carries the header with every flit
// (simulator convenience — physically only the head flit holds the header).
type Flit struct {
	Pkt *Packet
	// Index is the flit's position in the packet: 0 .. Pkt.Flits()-1.
	Index int
	// VC is the virtual channel assigned on the current hop.
	VC int
}

// Head reports whether this is the packet's head flit.
func (f Flit) Head() bool { return f.Index == 0 }

// Tail reports whether this is the packet's last flit.
func (f Flit) Tail() bool { return f.Index == f.Pkt.Flits()-1 }

// IDSource hands out unique packet IDs within one simulation.
type IDSource struct{ next uint64 }

// Next returns a fresh ID.
func (s *IDSource) Next() uint64 {
	s.next++
	return s.next
}

// NewNodeIDs returns an IDSource drawing from node's private ID space (the
// node number occupies the high bits). Per-node sources never collide with
// each other, make ID assignment independent of cross-node event order, and
// keep allocation race-free when nodes tick in different engine shards.
func NewNodeIDs(node int) *IDSource {
	return &IDSource{next: uint64(node) << 40}
}
