package router

// Modern-fabric baseline knobs: link-level priority flow control (PFC),
// ECN congestion marking, and the lossy-wire fault model. These are the
// in-network mechanisms the NIFDY-vs-RoCEv2 scenario pack compares against
// (DESIGN.md §10): PFC is the hop-by-hop pause/resume backpressure of
// 802.1Qbb, ECN feeds the DCQCN rate-control NIC, and the lossy wire is the
// §6 retransmission trigger.

// PFCConfig enables link-level pause/resume flow control with per-VC
// thresholds. A receiving buffer whose occupancy reaches XOff sends a pause
// frame upstream on the channel's credit wire; the transmitter stops
// scheduling flits on that VC until occupancy drains to XOn and a resume
// frame arrives. Pause frames ride the credit wire, so they propagate
// hop-by-hop with the same latency and determinism as credit returns.
//
// PFC is strictly more conservative than the credit protocol (which pauses
// implicitly at occupancy == capacity): it pauses earlier and holds the
// whole VC, which is exactly the head-of-line blocking and congestion
// spreading the scenario pack measures.
type PFCConfig struct {
	// Enable turns PFC on for every channel of the component.
	Enable bool
	// XOff is the pause threshold (occupancy >= XOff pauses). 0 selects
	// max(1, capacity/2).
	XOff int
	// XOn is the resume threshold (occupancy <= XOn resumes). 0 selects
	// XOff-1 (and never exceeds it).
	XOn int
}

// thresholds resolves the configured thresholds against a buffer capacity.
func (c PFCConfig) thresholds(capacity int) (xoff, xon int) {
	xoff = c.XOff
	if xoff <= 0 {
		xoff = capacity / 2
	}
	if xoff < 1 {
		xoff = 1
	}
	if xoff > capacity {
		xoff = capacity
	}
	xon = c.XOn
	if xon <= 0 || xon >= xoff {
		xon = xoff - 1
	}
	return xoff, xon
}

// ECNConfig enables congestion marking at router egress queues: when a head
// flit is forwarded onto an output VC whose downstream occupancy estimate
// (initial credit grant minus credits held) has reached Threshold, the
// packet's ECN bit is set. The destination NIC echoes the mark back to the
// source as a congestion notification (CNP), closing the DCQCN loop.
type ECNConfig struct {
	// Enable turns marking on.
	Enable bool
	// Threshold is the occupancy at which to mark. 0 selects max(1, grant-1).
	Threshold int
}

// threshold resolves the marking threshold against the credit grant.
func (c ECNConfig) threshold(grant int) int {
	t := c.Threshold
	if t <= 0 {
		t = grant - 1
	}
	if t < 1 {
		t = 1
	}
	return t
}

// FabricConfig bundles the modern-fabric knobs threaded from
// topo.IfaceOptions into every router and interface of a topology.
type FabricConfig struct {
	// PFC configures link-level pause/resume on every channel.
	PFC PFCConfig
	// ECN configures egress congestion marking in the routers.
	ECN ECNConfig
	// WireDrop, when positive, drops each flit crossing the destination
	// access wire with this probability: the flit is serialized but never
	// arrives, and the interface discards the packet's other flits as they
	// land — the in-flight loss that exercises the §6 retransmission path.
	// The interface performs the compensating credit returns itself, so the
	// conservation monitors stay satisfied at every audit instant.
	WireDrop float64
	// WireCorrupt, when positive, corrupts each arriving flit with this
	// probability: the flit still crosses the wire (and occupies its buffer
	// slot) but the checksum fails on reassembly, so the whole packet is
	// discarded on arrival — loss with full wire occupancy.
	WireCorrupt float64
	// Seed drives the per-node wire-fault streams (required when WireDrop or
	// WireCorrupt is positive).
	Seed uint64
}

// Lossy reports whether any wire-fault probability is set.
func (c FabricConfig) Lossy() bool { return c.WireDrop > 0 || c.WireCorrupt > 0 }
