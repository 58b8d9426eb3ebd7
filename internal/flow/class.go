package flow

import (
	"math/bits"

	"nifdy/internal/packet"
	"nifdy/internal/ring"
	"nifdy/internal/sim"
)

// shareClass is the set of flows one global share binds. Its members all
// drain at share, so instead of a remainder each the class keeps one clock:
// s, the service (flits·rateQ) a member has received since the clock's
// origin, current as of cycle at. A member's rem is its finish tag — its
// remainder on joining plus s at that moment — so its remainder now is
// tag − s, the member with the smallest tag drains first whatever the share
// does, and a share change costs the members nothing.
//
// s only grows between two restarts of the clock, so members that join with
// the same remainder join in tag order: a member whose remainder is k whole
// flits (0 < k < classFIFOs) is appended to fifo[k], and only the others —
// partial remainders, left behind by a local rate or a stall — sift through
// the 4-ary heap.
type shareClass struct {
	share int64 // per-member rate; 0 = no global share constrains these flows
	s     int64
	at    sim.Cycle
	// kMax is the membership boundary: an unstalled flow is a member iff its
	// access-link census k is at most kMax, i.e. iff share < linkCap/k.
	kMax int32
	// code is what a FIFO member's record holds in flowRec.heap.
	code int32
	// live counts the FIFO members. A member that leaves leaves its entry
	// behind, stale: an entry is live only while its record holds code and
	// its tag (fifoLive). A stale entry is dropped when a drain or minTag
	// finds it at its FIFO's front, or when the emptied class restarts its
	// clock.
	live int32
	// used has bit k set while fifo[k] holds entries, live or stale.
	used uint64
	fifo [classFIFOs]ring.Deque[heapEntry]
	// heap holds the other members, a 4-ary min-heap on tag. Each entry
	// carries its member's tag, so sifting compares entries without leaving
	// the array, and a node's four children are 64 contiguous bytes.
	heap []heapEntry
}

// classFIFOs is the size of a class's FIFO table: a joiner whose remainder
// is a whole number of flits below it skips the heap. A packet's remainder
// on admission is its length in flits.
const classFIFOs = 64

// heapEntry is one class member's FIFO or heap entry: its finish tag (a copy
// of its record's rem) and its flow id.
type heapEntry struct {
	tag int64
	id  int32
}

// heapArity is the class heap's fan-out: the children of position i are
// heapArity·i + 1 … heapArity·i + heapArity.
const heapArity = 4

// sync brings the service clock current. step does it first thing, so every
// join, leave and share change of that step sees s as of now. An empty class
// restarts the clock from zero, which keeps s and the tags small however
// long the run, and drops the stale entries its FIFOs still hold: the FIFO
// order holds only among tags of one clock.
func (cl *shareClass) sync(now sim.Cycle) {
	cl.s += cl.share * int64(now-cl.at)
	cl.at = now
	if len(cl.heap) == 0 && cl.live == 0 {
		cl.s = 0
		for ; cl.used != 0; cl.used &= cl.used - 1 {
			q := &cl.fifo[bits.TrailingZeros64(cl.used)]
			for q.Len() > 0 {
				q.PopFront()
			}
		}
	}
}

// drainAt reports the cycle a member with that tag drains if the share holds:
// the same cycle from any sync point, by the ceil identity, and so the one a
// per-flow deadline set at the last share change (or at joining) would name.
// The tag is ahead of s: a member it has reached was due and is gone.
func (cl *shareClass) drainAt(tag int64) sim.Cycle {
	return cl.at + sim.Cycle((tag-cl.s+cl.share-1)/cl.share)
}

// classOf returns the share class a flow's endpoints put it in.
func (f *Fabric) classOf(src, dst int32) *shareClass {
	if f.crosses(src, dst) {
		return &f.classes[1]
	}
	return &f.classes[0]
}

// setShare moves a class's share and reports the census range (lo, hi] its
// membership boundary swept. Members keep their tags and drain at the new
// rate from now on; the flows whose census lies in that range are the only
// ones whose binding constraint changed.
func (f *Fabric) setShare(cl *shareClass, share int64) (lo, hi int32) {
	if share == cl.share {
		return 0, 0
	}
	cl.share = share // from now on: step synced the clock before solving
	var kMax int32
	if share > 0 {
		// share < linkCap/k (integer division) ⟺ k ≤ linkCap/(share+1).
		kMax = int32(f.linkCap / (share + 1))
	}
	lo, hi = min(cl.kMax, kMax), max(cl.kMax, kMax)
	cl.kMax = kMax
	return lo, hi
}

// flip re-rates the flows whose census may lie in (lo, hi], found through
// the nodes listed under those values. That turns up flows of either class,
// and flows whose other node decides their k; re-rating those changes
// nothing.
func (f *Fabric) flip(now sim.Cycle, lo, hi int32) {
	for k := lo + 1; k <= hi && int(k) < len(f.srcCensus.head); k++ {
		for src := f.srcCensus.head[k]; src >= 0; src = f.srcCensus.next[src] {
			for c := range packet.NumClasses {
				if id := flowID(src, c); f.flows[id].pkt != nil {
					f.stats.Flips++
					f.rerate(now, id)
				}
			}
		}
	}
	for k := lo + 1; k <= hi && int(k) < len(f.dstCensus.head); k++ {
		for dst := f.dstCensus.head[k]; dst >= 0; dst = f.dstCensus.next[dst] {
			for id := f.ports[dst].dstHead; id >= 0; id = f.flows[id].nextD {
				f.stats.Flips++
				f.rerate(now, id)
			}
		}
	}
}

// join makes a local (or unrated) flow a member: its remainder, brought
// current, becomes a finish tag on the class clock, filed in the FIFO of its
// remainder in whole flits, or in the heap if it has none.
func (f *Fabric) join(now sim.Cycle, cl *shareClass, id int32) {
	f.advance(now, id)
	fl := &f.flows[id]
	r := fl.rem
	fl.rem += cl.s
	f.stats.ClassJoins++
	if k := r / rateQ; r%rateQ == 0 && k < classFIFOs {
		cl.fifo[k].PushBack(heapEntry{fl.rem, id})
		cl.used |= 1 << k
		cl.live++
		fl.heap = cl.code
		f.stats.FIFOJoins++
		return
	}
	f.heapPush(cl, heapEntry{fl.rem, id})
}

// leave takes a member out of its class ahead of a local rate: its tag
// turns back into its remainder now, stopped (a member's rate is 0). A FIFO
// member's entry stays where it is, stale.
func (f *Fabric) leave(cl *shareClass, id int32) {
	fl := &f.flows[id]
	if fl.heap >= 0 {
		f.heapRemove(cl, fl.heap)
	} else {
		fl.heap = -1
		cl.live--
	}
	fl.rem -= cl.s
	f.stats.Advanced++
	f.stats.ClassLeaves++
}

// fifoLive reports whether a FIFO entry of class cl still stands for a
// member: its record is a FIFO member of cl with that tag. A flow that left
// and rejoined the same FIFO with the same tag has two live entries; the
// first to drain it makes the other stale.
func (f *Fabric) fifoLive(cl *shareClass, e heapEntry) bool {
	fl := &f.flows[e.id]
	return fl.heap == cl.code && fl.rem == e.tag
}

// drainDue moves the members whose finish tag the class's service has
// reached out of the heap and the FIFOs onto the drained batch.
func (f *Fabric) drainDue(cl *shareClass) {
	for len(cl.heap) > 0 && cl.heap[0].tag <= cl.s {
		id := cl.heap[0].id
		f.heapRemove(cl, 0)
		f.stats.ClassLeaves++
		f.drained = sim.Push(f.drained, drainedFlow{f.flows[id].seq, id})
	}
	if cl.live == 0 {
		return
	}
	for m := cl.used; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		for {
			e, ok := f.liveFront(cl, k)
			if !ok || e.tag > cl.s {
				break
			}
			cl.fifo[k].PopFront()
			fl := &f.flows[e.id]
			fl.heap = -1
			cl.live--
			f.stats.ClassLeaves++
			f.drained = sim.Push(f.drained, drainedFlow{fl.seq, e.id})
		}
	}
}

// minTag reports the class's smallest live tag, the heap root's or a FIFO
// front's. A class with no FIFO member reads only the heap.
func (f *Fabric) minTag(cl *shareClass) (tag int64, ok bool) {
	if len(cl.heap) > 0 {
		tag, ok = cl.heap[0].tag, true
	}
	if cl.live == 0 {
		return tag, ok
	}
	for m := cl.used; m != 0; m &= m - 1 {
		if e, live := f.liveFront(cl, bits.TrailingZeros64(m)); live && (!ok || e.tag < tag) {
			tag, ok = e.tag, true
		}
	}
	return tag, ok
}

// liveFront drops the stale entries at the front of the class's FIFO k and
// reports the live entry there, if any; a FIFO that runs empty leaves used.
func (f *Fabric) liveFront(cl *shareClass, k int) (heapEntry, bool) {
	q := &cl.fifo[k]
	for {
		e, ok := q.Front()
		if !ok {
			cl.used &^= 1 << k
			return e, false
		}
		if f.fifoLive(cl, e) {
			return e, true
		}
		q.PopFront()
	}
}

// censusList files nodes under a census value k ≥ 1 in intrusive per-value
// lists (a node with census 0 is in none).
type censusList struct {
	head       []int32 // by census value, -1 = none; grown to the largest seen
	next, prev []int32 // per node
}

func (l *censusList) init(nodes int) {
	l.next = make([]int32, nodes)
	l.prev = make([]int32, nodes)
}

// move re-files node from census value old to k.
func (l *censusList) move(node, old, k int32) {
	if old != 0 {
		p, n := l.prev[node], l.next[node]
		if p >= 0 {
			l.next[p] = n
		} else {
			l.head[old] = n
		}
		if n >= 0 {
			l.prev[n] = p
		}
	}
	if k == 0 {
		return
	}
	for int(k) >= len(l.head) {
		l.head = append(l.head, -1)
	}
	h := l.head[k]
	l.prev[node], l.next[node] = -1, h
	if h >= 0 {
		l.prev[h] = node
	}
	l.head[k] = node
}

// heapPush adds a member to the class heap.
func (f *Fabric) heapPush(cl *shareClass, e heapEntry) {
	cl.heap = sim.Push(cl.heap, e)
	f.heapUp(cl, int32(len(cl.heap)-1), e)
}

// heapRemove deletes the entry at position i.
func (f *Fabric) heapRemove(cl *shareClass, i int32) {
	f.flows[cl.heap[i].id].heap = -1
	n := int32(len(cl.heap) - 1)
	last := cl.heap[n]
	cl.heap = cl.heap[:n]
	if i == n {
		return
	}
	// Re-seat the displaced last entry at i: down if a child is smaller,
	// else up (it may have come from another subtree).
	if j := f.heapDown(cl, i, last); j == i {
		f.heapUp(cl, i, last)
	}
}

// heapUp seats e at or above position i, shifting larger parents down.
func (f *Fabric) heapUp(cl *shareClass, i int32, e heapEntry) {
	for i > 0 {
		p := (i - 1) / heapArity
		pe := cl.heap[p]
		if pe.tag <= e.tag {
			break
		}
		cl.heap[i] = pe
		f.flows[pe.id].heap = i
		f.stats.HeapMoves++
		i = p
	}
	cl.heap[i] = e
	f.flows[e.id].heap = i
}

// heapDown seats e at or below position i, shifting the smallest child up
// while it is smaller, and reports where e landed.
func (f *Fabric) heapDown(cl *shareClass, i int32, e heapEntry) int32 {
	h := cl.heap
	n := int32(len(h))
	for {
		c := heapArity*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < min(c+heapArity, n); j++ {
			if h[j].tag < h[m].tag {
				m = j
			}
		}
		if h[m].tag >= e.tag {
			break
		}
		h[i] = h[m]
		f.flows[h[i].id].heap = i
		f.stats.HeapMoves++
		i = m
	}
	h[i] = e
	f.flows[e.id].heap = i
	return i
}

// SolverStats counts the solver's work since the fabric was built. The event
// counters (arrivals, departures, stall edges) are properties of the
// simulated run; the rest are what the solver spent on them, and their sum
// per event is the solver's complexity measured without a clock.
type SolverStats struct {
	Steps      int64 // solver runs that did work
	Arrivals   int64 // flows admitted
	Departures int64 // flows retired
	StallEdges int64 // destinations crossing the stall threshold, either way

	Advanced int64 // remainders brought current (lazy drain)
	Rerated  int64 // per-flow rate recomputations
	Flips    int64 // of those, forced by a share crossing a flow's census boundary

	WheelFiles, WheelUnlinks, WheelExpiries int64 // drain-deadline wheel
	ClassJoins, ClassLeaves                 int64 // share classes (drains included)

	// FIFOJoins counts the class joins that took a remainder FIFO, and
	// HeapMoves the entries the class heaps shifted, one per level a sift
	// passes. Neither is in Work: a FIFO join is a class join already, and a
	// sift's length is the heap's cost per operation, not an operation.
	FIFOJoins, HeapMoves int64
}

// Events is the number of flow-set and stall transitions handled.
func (s SolverStats) Events() int64 { return s.Arrivals + s.Departures + s.StallEdges }

// Work is the number of per-flow operations spent handling them.
func (s SolverStats) Work() int64 {
	return s.Advanced + s.Rerated + s.WheelFiles + s.WheelUnlinks + s.WheelExpiries + s.ClassJoins + s.ClassLeaves
}

// SolverStats reports the solver's operation counters.
func (f *Fabric) SolverStats() SolverStats { return f.stats }
