package flow

import "nifdy/internal/sim"

// shareClass is the set of flows one global share binds. Its members all
// drain at share, so instead of a remainder each the class keeps one clock:
// s, the service (flits·rateQ) a member has received since the clock's
// origin, current as of cycle at. A member's fRem is its finish tag — its
// remainder on joining plus s at that moment — so its remainder now is
// tag − s, the member with the smallest tag drains first whatever the share
// does, and a share change costs the members nothing.
type shareClass struct {
	share int64 // per-member rate; 0 = no global share constrains these flows
	s     int64
	at    sim.Cycle
	// kMax is the membership boundary: an unstalled flow is a member iff its
	// access-link census k is at most kMax, i.e. iff share < linkCap/k.
	kMax int32
	heap []int32 // member ids, min-heap on tag
}

// sync brings the service clock current. step does it first thing, so every
// join, leave and share change of that step sees s as of now. An empty class
// restarts the clock from zero, which keeps s and the tags small however
// long the run.
func (cl *shareClass) sync(now sim.Cycle) {
	cl.s += cl.share * int64(now-cl.at)
	cl.at = now
	if len(cl.heap) == 0 {
		cl.s = 0
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
func (f *Fabric) classOf(id int32) *shareClass {
	if f.crosses(f.fSrc[id], f.fDst[id]) {
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
			for _, id := range f.ports[src].slotFlow {
				if id >= 0 {
					f.stats.Flips++
					f.rerate(now, id)
				}
			}
		}
	}
	for k := lo + 1; k <= hi && int(k) < len(f.dstCensus.head); k++ {
		for dst := f.dstCensus.head[k]; dst >= 0; dst = f.dstCensus.next[dst] {
			for id := f.dstHead[dst]; id >= 0; id = f.fNextD[id] {
				f.stats.Flips++
				f.rerate(now, id)
			}
		}
	}
}

// join makes a local (or unrated) flow a member: its remainder, brought
// current, becomes a finish tag on the class clock.
func (f *Fabric) join(now sim.Cycle, cl *shareClass, id int32) {
	f.advance(now, id)
	f.fRem[id] += cl.s
	f.heapPush(cl, id)
	f.stats.ClassJoins++
}

// leave takes a member out of its class ahead of a local rate: its tag
// turns back into a remainder as of now.
func (f *Fabric) leave(now sim.Cycle, cl *shareClass, id int32) {
	f.heapRemove(cl, f.fHeap[id])
	f.fRem[id] -= cl.s
	f.fAt[id] = now
	f.stats.Advanced++
	f.stats.ClassLeaves++
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

// heapPush adds flow id to the class heap under its tag.
func (f *Fabric) heapPush(cl *shareClass, id int32) {
	cl.heap = append(cl.heap, id)
	f.heapUp(cl, int32(len(cl.heap)-1), id)
}

// heapRemove deletes the entry at position i.
func (f *Fabric) heapRemove(cl *shareClass, i int32) {
	f.fHeap[cl.heap[i]] = -1
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

// heapUp seats id at or above position i, shifting larger parents down.
func (f *Fabric) heapUp(cl *shareClass, i, id int32) {
	tag := f.fRem[id]
	for i > 0 {
		p := (i - 1) / 2
		pid := cl.heap[p]
		if f.fRem[pid] <= tag {
			break
		}
		cl.heap[i] = pid
		f.fHeap[pid] = i
		i = p
	}
	cl.heap[i] = id
	f.fHeap[id] = i
}

// heapDown seats id at or below position i, shifting smaller children up,
// and reports where it landed.
func (f *Fabric) heapDown(cl *shareClass, i, id int32) int32 {
	tag := f.fRem[id]
	n := int32(len(cl.heap))
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && f.fRem[cl.heap[r]] < f.fRem[cl.heap[c]] {
			c = r
		}
		cid := cl.heap[c]
		if f.fRem[cid] >= tag {
			break
		}
		cl.heap[i] = cid
		f.fHeap[cid] = i
		i = c
	}
	cl.heap[i] = id
	f.fHeap[id] = i
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
	ClassJoins, ClassLeaves                 int64 // share-class heaps (drains included)
}

// Events is the number of flow-set and stall transitions handled.
func (s SolverStats) Events() int64 { return s.Arrivals + s.Departures + s.StallEdges }

// Work is the number of per-flow operations spent handling them.
func (s SolverStats) Work() int64 {
	return s.Advanced + s.Rerated + s.WheelFiles + s.WheelUnlinks + s.WheelExpiries + s.ClassJoins + s.ClassLeaves
}

// SolverStats reports the solver's operation counters.
func (f *Fabric) SolverStats() SolverStats { return f.stats }
