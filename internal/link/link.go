// Package link models the physical channels of the simulated networks:
// fixed-latency wires and byte-serial flit links.
//
// Link widths follow the paper (§3): most networks use 1-byte-wide links, so
// a one-word (32-bit) flit occupies a link for 4 cycles; the CM-5 fat-tree
// variant uses 4-bit links time-multiplexed between the request and reply
// networks, giving each logical network one flit per 16 cycles.
package link

import "nifdy/internal/sim"

// Wire is a fixed-latency, in-order event pipe. Events sent at cycle t are
// receivable at cycle t+latency (minimum 1, so that a Tick-phase send is
// never visible to a same-cycle Tick elsewhere).
//
// A wire may be observed by its consumer's sim.Activity: every send then
// re-arms the consumer for the event's arrival cycle, which is the wake edge
// that makes the engine's quiescence skipping safe — a sleeping consumer is
// always woken no later than the cycle its input changes.
//
// A wire whose single writer and consumer live in different engine shards
// must be marked with CrossShard: sends then accumulate in a writer-owned
// staging buffer and are merged into the consumer-visible event list (and
// the observer woken) at the engine's next window boundary, when no shard is
// ticking. Every send arrives at or after that boundary (one cycle later at
// W = 1, by channel padding above it), so the merge is never late and every
// shard count stays bit-identical to one.
type Wire[T any] struct {
	latency sim.Cycle
	events  []timed[T]
	head    int
	// *next caches events[head].at (sim.Never when empty) so the hot
	// Ready/NextAt polls are one load and a compare instead of a bounds check
	// plus a load through the slice. It points at own until the consumer
	// boards the wire (Board), and into the consumer's arrival board after —
	// a consumer with many input wires then finds the due ones by scanning
	// one contiguous array, without touching the wires. Whoever may touch
	// events may write the word: the same-shard writer in SendAt, the
	// consumer in Recv, and on a cross-shard wire only Flush/InjectAt, at the
	// window boundary.
	next *sim.Cycle
	own  sim.Cycle
	obs  *sim.Activity

	// Cross-shard staging (nil/unused for same-shard wires). staged is
	// written only by the wire's single writer while its shard ticks; Flush
	// (run by crossFl, the writer shard's cross flusher) merges it into
	// events at the window boundary, when the consumer is quiescent.
	// crossID is the wire's dense ID in crossFl's latch table, so the hot
	// marking path appends an int32 instead of an interface value.
	staged      []timed[T]
	crossFl     *sim.Flusher
	crossID     int32
	stagedDirty bool

	// remote, when set, makes this a process-egress wire: the consumer lives
	// in another worker process, so Flush ships the staged batch to the
	// transport instead of merging it locally (the local event list stays
	// empty; the local consumer copy never ticks).
	remote Sink[T]
}

// Sink receives the events of a process-egress wire at the window-boundary
// drain, in staged (arrival-monotonic) order — the transport serializes them
// into the destination process's frame, where the peer replays them with
// InjectAt on its copy of the same wire.
type Sink[T any] interface {
	Ship(at sim.Cycle, v T)
}

type timed[T any] struct {
	at sim.Cycle
	v  T
}

// NewWire returns a Wire with the given latency in cycles (values below 1
// are raised to 1).
func NewWire[T any](latency int) *Wire[T] {
	w := new(Wire[T])
	w.Init(latency)
	return w
}

// Init makes w an empty wire with the given latency, in place: a wire that is
// a field of its owner costs no allocation of its own. The wire points at its
// own next-arrival word until boarded, so it must not be copied after Init.
func (w *Wire[T]) Init(latency int) {
	if latency < 1 {
		latency = 1
	}
	*w = Wire[T]{latency: sim.Cycle(latency), own: sim.Never}
	w.next = &w.own
}

// Latency reports the wire delay in cycles.
func (w *Wire[T]) Latency() int { return int(w.latency) }

// Observe registers the consumer's activity: every subsequent send wakes it
// at the event's arrival cycle. The consumer must live in the same engine
// shard as the wire's writer unless the wire is marked CrossShard.
func (w *Wire[T]) Observe(a *sim.Activity) { w.obs = a }

// Board moves the wire's cached next-arrival cycle into slot, a word of the
// consumer's arrival board, carrying a pending arrival over. From then on
// *slot == NextAt() after every operation on the wire, under the wire's own
// ownership rule (see the next field). Like Observe it is a build-time call.
func (w *Wire[T]) Board(slot *sim.Cycle) {
	*slot = *w.next
	w.next = slot
}

// CrossShard marks the wire as a cross-shard edge. f must be the writer
// shard's sim.Engine.CrossFlusher: sends stage locally and the staged batch
// is merged into the consumer-visible event list at the next window boundary,
// after every shard has finished the window. The consumer's Activity (if
// observed) is woken at merge time.
func (w *Wire[T]) CrossShard(f *sim.Flusher) {
	w.crossFl = f
	w.crossID = f.BindID(w)
}

// SetRemote marks the wire process-egress: its consumer is owned by another
// worker process and staged sends are shipped to sink at the boundary drain
// (see Sink). The wire must already be marked CrossShard.
func (w *Wire[T]) SetRemote(sink Sink[T]) { w.remote = sink }

// InjectAt appends a remote event to the consumer-visible list and wakes the
// observer — the receiving side of a process-ingress wire. Only the
// transport calls it, at the window boundary, when the consumer is
// quiescent; events must arrive in monotonic order per wire, which shipping
// each egress wire's staged batch in order guarantees.
func (w *Wire[T]) InjectAt(at sim.Cycle, v T) {
	if n := len(w.events); n > 0 && w.events[n-1].at > at {
		panic("link: out-of-order InjectAt")
	}
	w.events = append(w.events, timed[T]{at, v})
	if at < *w.next {
		*w.next = at
	}
	if w.obs != nil {
		w.obs.WakeAt(at)
	}
}

// NextAt reports the arrival cycle of the oldest unconsumed event, or
// sim.Never when the wire is empty — the time a quiescent consumer may
// sleep until.
func (w *Wire[T]) NextAt() sim.Cycle { return *w.next }

// Send schedules v for arrival at now+latency.
func (w *Wire[T]) Send(now sim.Cycle, v T) {
	w.SendAt(now+w.latency, v)
}

// SendAt schedules v for arrival at cycle at (which must not precede already
// scheduled arrivals; callers in this repository always send monotonically).
//
//lint:allow(hotalloc) amortized event-list growth; Recv rewinds and compacts so steady-state sends reuse capacity
func (w *Wire[T]) SendAt(at sim.Cycle, v T) {
	if w.crossFl != nil {
		// Cross-shard: the consumer owns events/head/next during the tick
		// phase, so stage writer-side and merge in Flush. Monotonicity
		// against already-merged events is checked at merge time.
		if n := len(w.staged); n > 0 && w.staged[n-1].at > at {
			panic("link: out-of-order SendAt")
		}
		w.staged = append(w.staged, timed[T]{at, v})
		if !w.stagedDirty {
			w.stagedDirty = true
			w.crossFl.MarkID(w.crossID)
		}
		return
	}
	if n := len(w.events); n > 0 && w.events[n-1].at > at {
		panic("link: out-of-order SendAt")
	}
	w.events = append(w.events, timed[T]{at, v})
	if at < *w.next {
		*w.next = at
	}
	if w.obs != nil {
		w.obs.WakeAt(at)
	}
}

// Flush implements sim.Latch for cross-shard wires: it merges the staged
// sends into the event list and wakes the observer. It runs at the window
// boundary, on the stepping goroutine, so the consumer (which touches events
// only while ticking) is guaranteed quiescent; the next window sees the
// merged list via the channel release of its worker.
//
//lint:allow(hotalloc) cross-shard staged merge; both slices reuse capacity after warm-up
func (w *Wire[T]) Flush() {
	w.stagedDirty = false
	if len(w.staged) == 0 {
		return
	}
	if w.remote != nil {
		// Process-egress: hand the batch to the transport; nothing merges
		// locally (the consumer lives in a peer process).
		for i, e := range w.staged {
			w.remote.Ship(e.at, e.v)
			w.staged[i] = timed[T]{}
		}
		w.staged = w.staged[:0]
		return
	}
	if n := len(w.events); n > 0 && w.events[n-1].at > w.staged[0].at {
		panic("link: out-of-order cross-shard merge")
	}
	first := w.staged[0].at
	w.events = append(w.events, w.staged...)
	for i := range w.staged {
		w.staged[i] = timed[T]{}
	}
	w.staged = w.staged[:0]
	if first < *w.next {
		*w.next = first
	}
	if w.obs != nil {
		w.obs.WakeAt(first)
	}
}

// Ready reports whether an event has arrived — the inlineable guard for hot
// drain loops (`for w.Ready(now) { w.Recv(now) }`), so the common nothing-
// arrived case costs a compare instead of a function call.
func (w *Wire[T]) Ready(now sim.Cycle) bool { return *w.next <= now }

// Recv pops the oldest event whose arrival time has come. ok is false when
// nothing has arrived yet.
func (w *Wire[T]) Recv(now sim.Cycle) (v T, ok bool) {
	if w.head >= len(w.events) {
		if w.head > 0 {
			// Fully drained: rewind to the front of the backing array
			// (consumed slots are already zeroed) so future sends reuse it
			// instead of creeping toward a new high-water mark.
			w.events = w.events[:0]
			w.head = 0
		}
		return v, false
	}
	if w.events[w.head].at > now {
		// Compact the consumed prefix once it dominates the slice.
		if w.head > 64 && w.head*2 >= len(w.events) {
			n := copy(w.events, w.events[w.head:])
			for i := n; i < len(w.events); i++ {
				w.events[i] = timed[T]{}
			}
			w.events = w.events[:n]
			w.head = 0
		}
		return v, false
	}
	v = w.events[w.head].v
	w.events[w.head] = timed[T]{}
	w.head++
	if w.head == len(w.events) {
		// Drained by this pop: rewind (slots behind head are zeroed).
		w.events = w.events[:0]
		w.head = 0
		*w.next = sim.Never
	} else {
		*w.next = w.events[w.head].at
	}
	return v, true
}

// Pending reports events not yet received.
func (w *Wire[T]) Pending() int { return len(w.events) - w.head }

// ForEach calls f on every unconsumed event in arrival order, with its
// scheduled arrival cycle. It is an audit hook for the invariant monitors
// (flit/credit conservation must count in-flight events) and must only be
// called while the wire's writer and consumer are quiescent — e.g. from an
// engine step hook, when cross-shard staging is guaranteed merged.
func (w *Wire[T]) ForEach(f func(at sim.Cycle, v T)) {
	if len(w.staged) > 0 {
		panic("link: ForEach with unmerged cross-shard staging")
	}
	for _, e := range w.events[w.head:] {
		f(e.at, e.v)
	}
}

// Link is a byte-serial channel carrying one-word flits. A flit transmission
// occupies the link for CyclesPerFlit cycles; the flit becomes receivable
// when its last byte has crossed, CyclesPerFlit+latency-1 cycles after the
// send (minimum 1).
type Link[T any] struct {
	wire          Wire[T]
	cyclesPerFlit sim.Cycle
	busyUntil     sim.Cycle
	sent          int64

	// fault, when set, is consulted on every Send: returning false drops the
	// flit in flight — the link still serializes it (busy time is spent, the
	// sender's books are charged) but it never arrives at the consumer. The
	// receiving side installs the handler and performs the compensating
	// accounting (credit return, loss counters) inside it, so conservation
	// invariants keep holding at every audit instant. The handler runs on the
	// writer's goroutine; installer and writer must share an engine shard.
	fault func(now sim.Cycle, v T) bool
}

// NewLink returns a Link with the given serialization time per flit and wire
// latency, both in cycles.
func NewLink[T any](cyclesPerFlit, latency int) *Link[T] {
	l := new(Link[T])
	l.Init(cyclesPerFlit, latency)
	return l
}

// Init makes l an idle link in place (see Wire.Init; the same no-copy rule
// holds).
func (l *Link[T]) Init(cyclesPerFlit, latency int) {
	if cyclesPerFlit < 1 {
		cyclesPerFlit = 1
	}
	*l = Link[T]{cyclesPerFlit: sim.Cycle(cyclesPerFlit)}
	l.wire.Init(latency)
}

// CyclesPerFlit reports the serialization time of one flit.
func (l *Link[T]) CyclesPerFlit() int { return int(l.cyclesPerFlit) }

// Latency reports the underlying wire delay in cycles. A flit sent at t
// fully arrives at t+CyclesPerFlit+Latency-1 (minimum t+1); the invariant
// monitors use this to bound a flit's time of transmission from its arrival.
func (l *Link[T]) Latency() int { return l.wire.Latency() }

// SetFault installs (or, with nil, removes) the lossy-link fault hook (see
// the field comment). Faults are decided at transmission time by the single
// writer, so drop decisions are deterministic for any shard count.
func (l *Link[T]) SetFault(f func(now sim.Cycle, v T) bool) { l.fault = f }

// Observe registers the consumer's activity with the underlying wire (see
// Wire.Observe).
func (l *Link[T]) Observe(a *sim.Activity) { l.wire.Observe(a) }

// Board boards the underlying wire (see Wire.Board).
func (l *Link[T]) Board(slot *sim.Cycle) { l.wire.Board(slot) }

// CrossShard marks the underlying wire as a cross-shard edge (see
// Wire.CrossShard). f must be the sending side's shard CrossFlusher.
func (l *Link[T]) CrossShard(f *sim.Flusher) { l.wire.CrossShard(f) }

// SetRemote marks the underlying wire process-egress (see Wire.SetRemote).
func (l *Link[T]) SetRemote(sink Sink[T]) { l.wire.SetRemote(sink) }

// InjectAt replays a remote event on the underlying wire (see Wire.InjectAt).
func (l *Link[T]) InjectAt(at sim.Cycle, v T) { l.wire.InjectAt(at, v) }

// NextAt reports the arrival cycle of the oldest in-flight flit, or
// sim.Never when none is in flight.
func (l *Link[T]) NextAt() sim.Cycle { return l.wire.NextAt() }

// CanSend reports whether the link is idle this cycle.
func (l *Link[T]) CanSend(now sim.Cycle) bool { return now >= l.busyUntil }

// FreeAt reports the first cycle at which CanSend is true again — the time a
// sender blocked only on link occupancy may sleep until.
func (l *Link[T]) FreeAt() sim.Cycle { return l.busyUntil }

// Send transmits one flit; the link stays busy for CyclesPerFlit cycles.
// Callers must check CanSend first.
func (l *Link[T]) Send(now sim.Cycle, f T) {
	if !l.CanSend(now) {
		panic("link: Send while busy")
	}
	l.busyUntil = now + l.cyclesPerFlit
	l.sent++
	if l.fault != nil && !l.fault(now, f) {
		return // dropped in flight: serialized but never arrives
	}
	at := now + l.cyclesPerFlit + l.wire.latency - 1
	if at <= now {
		at = now + 1
	}
	l.wire.SendAt(at, f)
}

// Ready reports whether a flit has fully arrived (see Wire.Ready).
func (l *Link[T]) Ready(now sim.Cycle) bool { return l.wire.Ready(now) }

// Recv pops the oldest flit that has fully arrived.
func (l *Link[T]) Recv(now sim.Cycle) (T, bool) { return l.wire.Recv(now) }

// Pending reports flits in flight.
func (l *Link[T]) Pending() int { return l.wire.Pending() }

// ForEach calls f on every in-flight flit in arrival order (see Wire.ForEach).
func (l *Link[T]) ForEach(f func(at sim.Cycle, v T)) { l.wire.ForEach(f) }

// Sent reports the total number of flits ever sent (utilization stats).
func (l *Link[T]) Sent() int64 { return l.sent }
