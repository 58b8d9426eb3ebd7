package router

// FabricConfig bundles the modern-fabric baseline knobs threaded from
// topo.IfaceOptions into every router and interface of a topology: link-level
// priority flow control (PFC), ECN congestion marking, and the lossy-wire
// fault model. These are the in-network mechanisms the NIFDY-vs-RoCEv2
// scenario pack compares against (DESIGN.md §10): PFC is the hop-by-hop
// pause/resume backpressure of 802.1Qbb, ECN feeds the DCQCN rate-control
// NIC, and the lossy wire is the §6 retransmission trigger.
type FabricConfig struct {
	// PFC turns on link-level pause/resume on every channel. A router input
	// VC whose occupancy reaches max(1, BufFlits/2) sends a pause frame
	// upstream on the channel's credit wire; the transmitter stops
	// scheduling flits on that VC until occupancy drains one below the
	// pause level and a resume frame arrives. An interface's ejection VC
	// pauses only when full (see NewIface). Pause frames ride the credit
	// wire, so they propagate hop-by-hop with the same latency and
	// determinism as credit returns.
	//
	// PFC is strictly more conservative than the credit protocol (which
	// pauses implicitly at occupancy == capacity): it pauses earlier and
	// holds the whole VC, which is exactly the head-of-line blocking and
	// congestion spreading the scenario pack measures.
	PFC bool
	// ECN turns on congestion marking at router egress queues: when a head
	// flit is forwarded onto an output VC whose downstream occupancy
	// estimate (initial credit grant minus credits held) has reached
	// max(1, grant-1), the packet's ECN bit is set. The destination NIC
	// echoes the mark back to the source as a congestion notification
	// (CNP), closing the DCQCN loop.
	ECN bool
	// WireDrop, when positive, drops each flit crossing the destination
	// access wire with this probability: the flit is serialized but never
	// arrives, and the interface discards the packet's other flits as they
	// land — the in-flight loss that exercises the §6 retransmission path.
	// The interface performs the compensating credit returns itself, so the
	// conservation monitors stay satisfied at every audit instant.
	WireDrop float64
}
