// Package dist implements the multi-process distributed runner: worker
// processes each own a contiguous slice of a sharded simulation and exchange
// the staged cross-boundary events once per conservative-sync window, over
// Unix-domain socket pairs.
//
// The wire protocol is a frame per (boundary, peer): a header carrying the
// boundary cycle, a sequence number, the sender's done/ticked/idle state,
// then three sections — barrier arrival deltas, pending-count deltas, and
// the flit/credit events of every process-crossing channel whose writer the
// sender owns and whose consumer the receiver owns. Receivers replay the
// events with link.InjectAt in frame order, which preserves each wire's
// staged (arrival-monotonic) order; merging frames in peer-rank order makes
// the whole exchange deterministic, so any {shards x processes} split of a
// fixed-window model is bit-identical to serial execution (the tier-1
// contract enforced by internal/harness's determinism matrix).
package dist

import (
	"fmt"

	"nifdy/internal/packet"
	"nifdy/internal/sim"
)

// frameWindow is the type byte opening every per-boundary exchange frame
// (control traffic runs on a dedicated launcher connection and never mixes
// with window frames, so one type byte is a cheap desync tripwire).
const frameWindow = 0x01

// windowFrame is the decoded form of one per-boundary frame.
type windowFrame struct {
	Seq      uint64
	Boundary sim.Cycle
	Ticked   bool
	Done     bool
	// Idle is the sender's earliest future wake (valid when !Ticked;
	// sim.Never when fully quiescent).
	Idle sim.Cycle

	Barriers []barrierDelta
	Pending  []pendingDelta
	Flits    []flitEvent
	Credits  []creditEvent
}

type barrierDelta struct {
	ID    int
	Delta int
}

type pendingDelta struct {
	Node  int
	Delta int
}

// flitEvent is one cross-process flit arrival: Edge identifies the channel
// (cross-edge enumeration order, identical in every worker), At the arrival
// cycle. Head flits carry the full packet body (HasPkt) so the receiver can
// materialize its own copy; body flits carry only the ID, resolved against
// the receiver's packet table.
type flitEvent struct {
	Edge   int
	At     sim.Cycle
	VC     int
	Index  int
	PktID  uint64
	HasPkt bool
	Pkt    packet.Packet
}

type creditEvent struct {
	Edge int
	At   sim.Cycle
	VC   int
}

// enc is an append-only little-endian/varint encoder over a reusable buffer.
type enc struct{ b []byte }

func (e *enc) reset()        { e.b = e.b[:0] }
func (e *enc) bytes() []byte { return e.b }

func (e *enc) u8(v byte) { e.b = append(e.b, v) }

// uvarint appends v in unsigned LEB128.
func (e *enc) uvarint(v uint64) {
	for v >= 0x80 {
		e.b = append(e.b, byte(v)|0x80)
		v >>= 7
	}
	e.b = append(e.b, byte(v))
}

// varint appends v zigzag-encoded.
func (e *enc) varint(v int64) { e.uvarint(uint64(v<<1) ^ uint64(v>>63)) }

func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

// dec decodes from a byte slice; all methods report malformed input via err
// (they never panic — the decoder fuzz target feeds adversarial bytes).
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *dec) u8() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail("dist: truncated frame at byte %d", d.off)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) uvarint() uint64 {
	var v uint64
	for shift := 0; ; shift += 7 {
		if shift > 63 {
			d.fail("dist: uvarint overflow at byte %d", d.off)
			return 0
		}
		c := d.u8()
		if d.err != nil {
			return 0
		}
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
}

func (d *dec) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *dec) bool() bool { return d.u8() != 0 }

// count decodes a section length and bounds it by the remaining bytes (every
// element costs at least min bytes), so adversarial lengths cannot drive a
// huge allocation.
func (d *dec) count(min int) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if rem := len(d.b) - d.off; n > uint64(rem/min)+1 {
		d.fail("dist: section count %d exceeds frame size", n)
		return 0
	}
	return int(n)
}

// encodePacket appends every field of p. The field list must stay in sync
// with decodePacket and with packet.Packet — the codec round-trip test
// fills the struct by reflection, so a new field that is not carried here
// fails the test rather than silently desynchronizing worker processes.
func encodePacket(e *enc, p *packet.Packet) {
	e.uvarint(p.ID)
	e.varint(int64(p.Src))
	e.varint(int64(p.Dst))
	e.u8(byte(p.Kind))
	e.u8(byte(p.Class))
	e.varint(int64(p.Words))
	e.bool(p.BulkReq)
	e.bool(p.BulkExit)
	e.bool(p.NoAck)
	e.bool(p.ECN)
	e.bool(p.CNP)
	e.bool(p.Dup)
	e.bool(p.Retransmit)
	e.varint(int64(p.Dialog))
	e.varint(int64(p.Seq))
	e.u8(byte(p.Grant))
	e.bool(p.BulkAck)
	e.varint(int64(p.CumSeq))
	e.bool(p.PiggyAck)
	e.bool(p.Terminate)
	e.uvarint(p.Meta.MsgID)
	e.varint(int64(p.Meta.Index))
	e.varint(int64(p.Meta.Total))
	e.varint(int64(p.Meta.Tag))
	e.uvarint(p.Meta.Value)
	e.varint(p.CreatedAt)
	e.varint(p.InjectedAt)
	e.varint(p.DeliveredAt)
	e.varint(p.AcceptedAt)
}

func decodePacket(d *dec, p *packet.Packet) {
	p.ID = d.uvarint()
	p.Src = int(d.varint())
	p.Dst = int(d.varint())
	p.Kind = packet.Kind(d.u8())
	p.Class = packet.Class(d.u8())
	p.Words = int(d.varint())
	p.BulkReq = d.bool()
	p.BulkExit = d.bool()
	p.NoAck = d.bool()
	p.ECN = d.bool()
	p.CNP = d.bool()
	p.Dup = d.bool()
	p.Retransmit = d.bool()
	p.Dialog = int(d.varint())
	p.Seq = int(d.varint())
	p.Grant = packet.GrantKind(d.u8())
	p.BulkAck = d.bool()
	p.CumSeq = int(d.varint())
	p.PiggyAck = d.bool()
	p.Terminate = d.bool()
	p.Meta.MsgID = d.uvarint()
	p.Meta.Index = int(d.varint())
	p.Meta.Total = int(d.varint())
	p.Meta.Tag = int(d.varint())
	p.Meta.Value = d.uvarint()
	p.CreatedAt = d.varint()
	p.InjectedAt = d.varint()
	p.DeliveredAt = d.varint()
	p.AcceptedAt = d.varint()
}

// encodeWindowFrame serializes f into e (reset first by the caller). Event
// arrival cycles are encoded relative to the boundary; conservative padding
// guarantees they never precede it.
func encodeWindowFrame(e *enc, f *windowFrame) {
	e.u8(frameWindow)
	e.uvarint(f.Seq)
	e.varint(f.Boundary)
	var flags byte
	if f.Ticked {
		flags |= 1
	}
	if f.Done {
		flags |= 2
	}
	e.u8(flags)
	if f.Idle == sim.Never {
		e.uvarint(0)
	} else {
		e.uvarint(uint64(f.Idle-f.Boundary) + 1)
	}
	e.uvarint(uint64(len(f.Barriers)))
	for _, b := range f.Barriers {
		e.uvarint(uint64(b.ID))
		e.varint(int64(b.Delta))
	}
	e.uvarint(uint64(len(f.Pending)))
	for _, p := range f.Pending {
		e.uvarint(uint64(p.Node))
		e.varint(int64(p.Delta))
	}
	e.uvarint(uint64(len(f.Flits)))
	for i := range f.Flits {
		fe := &f.Flits[i]
		e.uvarint(uint64(fe.Edge))
		e.uvarint(uint64(fe.At - f.Boundary))
		e.uvarint(uint64(fe.VC))
		e.uvarint(uint64(fe.Index))
		e.uvarint(fe.PktID)
		e.bool(fe.HasPkt)
		if fe.HasPkt {
			encodePacket(e, &fe.Pkt)
		}
	}
	e.uvarint(uint64(len(f.Credits)))
	for _, ce := range f.Credits {
		e.uvarint(uint64(ce.Edge))
		e.uvarint(uint64(ce.At - f.Boundary))
		e.uvarint(uint64(ce.VC))
	}
}

// decodeWindowFrame parses b into f, reusing f's section slices. It returns
// an error (never panics) on malformed input and allocates nothing beyond
// the frame's own decoded sections.
func decodeWindowFrame(b []byte, f *windowFrame) error {
	d := &dec{b: b}
	if t := d.u8(); t != frameWindow && d.err == nil {
		return fmt.Errorf("dist: frame type 0x%02x, want window", t)
	}
	f.Seq = d.uvarint()
	f.Boundary = d.varint()
	flags := d.u8()
	f.Ticked = flags&1 != 0
	f.Done = flags&2 != 0
	if raw := d.uvarint(); raw == 0 {
		f.Idle = sim.Never
	} else {
		f.Idle = f.Boundary + sim.Cycle(raw-1)
	}
	f.Barriers = f.Barriers[:0]
	for n := d.count(2); n > 0 && d.err == nil; n-- {
		f.Barriers = append(f.Barriers, barrierDelta{
			ID:    int(d.uvarint()),
			Delta: int(d.varint()),
		})
	}
	f.Pending = f.Pending[:0]
	for n := d.count(2); n > 0 && d.err == nil; n-- {
		f.Pending = append(f.Pending, pendingDelta{
			Node:  int(d.uvarint()),
			Delta: int(d.varint()),
		})
	}
	f.Flits = f.Flits[:0]
	for n := d.count(6); n > 0 && d.err == nil; n-- {
		var fe flitEvent
		fe.Edge = int(d.uvarint())
		fe.At = f.Boundary + sim.Cycle(d.uvarint())
		fe.VC = int(d.uvarint())
		fe.Index = int(d.uvarint())
		fe.PktID = d.uvarint()
		fe.HasPkt = d.bool()
		if fe.HasPkt {
			decodePacket(d, &fe.Pkt)
		}
		f.Flits = append(f.Flits, fe)
	}
	f.Credits = f.Credits[:0]
	for n := d.count(3); n > 0 && d.err == nil; n-- {
		f.Credits = append(f.Credits, creditEvent{
			Edge: int(d.uvarint()),
			At:   f.Boundary + sim.Cycle(d.uvarint()),
			VC:   int(d.uvarint()),
		})
	}
	if d.err != nil {
		return d.err
	}
	if d.off != len(b) {
		return fmt.Errorf("dist: %d trailing bytes in frame", len(b)-d.off)
	}
	return nil
}
