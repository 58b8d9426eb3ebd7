// Package router implements the shared switching machinery used by every
// simulated topology: virtual-channel input buffers, credit-based link-level
// flow control, route/VC allocation, round-robin switch arbitration, and the
// node network interface port (Iface) that injects and ejects whole packets.
//
// All topologies in internal/topo compose Routers with topology-specific
// route functions. The design point follows the paper's assumptions (§1.1):
// wormhole or cut-through routing, optional store-and-forward, two logical
// networks (request/reply) as distinct virtual-channel classes, and
// backpressure as the only in-fabric feedback.
package router

import (
	"nifdy/internal/link"
	"nifdy/internal/packet"
)

// CreditKind distinguishes the frames carried on a channel's reverse wire:
// ordinary credit returns and the PFC pause/resume frames, which share the
// wire (and therefore its latency, ordering, and cross-shard determinism).
type CreditKind uint8

const (
	// CreditReturn is a buffer-slot return (the zero value: every plain
	// Credit{VC: v} literal is a credit return).
	CreditReturn CreditKind = iota
	// PFCPause tells the transmitter to stop scheduling flits on VC.
	PFCPause
	// PFCResume re-enables a paused VC.
	PFCResume
)

// Credit is a frame on a channel's reverse wire: a buffer-slot return for
// one virtual channel of the downstream input port, or (Kind != CreditReturn)
// a PFC pause/resume notification for that VC.
type Credit struct {
	// VC is the global virtual-channel index (class*VCs + vc).
	VC int
	// Kind selects credit return (zero) or PFC pause/resume.
	Kind CreditKind
}

// Channel bundles a forward flit link with its reverse credit wire. One
// Channel connects an output port (or an Iface's injection side) to an input
// port (or an Iface's ejection side). It holds both by value — one
// allocation per channel, no pointer hop between a port and its wire — so a
// Channel is built in place by NewChannel and never copied.
type Channel struct {
	Flits   link.Link[packet.Flit]
	Credits link.Wire[Credit]
}

// NewChannel returns a channel whose flit link serializes one flit per
// cyclesPerFlit cycles with the given wire latency; credits return with
// latency 1.
func NewChannel(cyclesPerFlit, latency int) *Channel {
	return NewChannelSync(cyclesPerFlit, latency, 1)
}

// NewChannelSync returns a channel padded for conservative window
// synchronization: every event (flit arrival, credit return) lands at least
// window cycles after its send, so a window-W engine can free-run W cycles
// between cross-shard merges without a consumer ever missing an input. The
// padding is a model parameter, not an approximation — a fabric built with
// window W behaves identically for every {shards} split,
// including fully serial execution, and window 1 is exactly NewChannel.
// Topologies apply it to router-router channels only (the ones a partition
// can cut); interface-access channels never cross shards and stay unpadded.
func NewChannelSync(cyclesPerFlit, latency, window int) *Channel {
	if window < 1 {
		window = 1
	}
	// Flit arrival offset is cyclesPerFlit+latency-1 (see link.Link.Send);
	// stretch the wire so the offset reaches the window.
	flitLat := latency
	if pad := window - (cyclesPerFlit + latency - 1); pad > 0 {
		flitLat += pad
	}
	ch := new(Channel)
	ch.Flits.Init(cyclesPerFlit, flitLat)
	ch.Credits.Init(window)
	return ch
}
