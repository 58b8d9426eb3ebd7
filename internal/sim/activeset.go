package sim

import (
	"slices"
	"sync/atomic"
)

// activeSet is one shard's scheduler state: the worklist of components to
// visit this cycle, and the timers of components asleep until a later one.
// The sweep touches components that Tick (plus the odd one that turns out not
// to be due and is filed) and nothing else: a component waiting for a wake
// edge or for a finite cycle costs zero instructions per cycle.
//
// A component is in exactly one of two states, told apart by its Activity's
// queued flag:
//
//   - queued: its index is in the worklist — exactly one of active, pend,
//     late or hold — and it will be visited by the next sweep (this one, if
//     it is in late).
//   - unqueued: it is parked at Never, or it holds a timer filed under a
//     cycle k with now < k <= wakeAt. There is one way out of the worklist
//     (leave, from a visit that finds the component not due or a Tick that
//     ends asleep) and two ways back in: Activity.WakeAt's enqueue when a
//     producer lowers the wake time, and expire when a timer comes due.
//
// Timers are validated when they expire, not when they go stale: a sleeper
// woken early keeps its wheel entry, and the entry is dropped (component
// queued or parked by then), re-filed (asleep until later) or turned into a
// visit (due) when its bucket drains. A component that sleeps again while
// its old entry is still ahead of the clock and no later than the new wake
// time reuses it, so a unit woken every few cycles under a far deadline does
// not touch the wheel at all.
//
// Layout and ownership:
//
//   - active is the sorted list of components that ticked last cycle and are
//     still awake. It is owned by the shard's ticking goroutine.
//   - pend is the wake mailbox: producers (Activity.WakeAt after a successful
//     queued CAS) claim a slot with an atomic counter and write the index.
//     Producers run either on the shard's own goroutine during its free run
//     (its Ticks and its own flushes), or on the stepping goroutine at
//     window boundaries (step hooks, the deferred drain, the cross flushers,
//     the exchange) — never concurrently with the sweep's drain, because no
//     shard runs at a boundary. The worker release/join channels also give
//     the sweep's reads of pend a happens-before edge over all boundary
//     writes.
//   - late is a min-heap of indices woken *during* the sweep for the current
//     cycle that lie ahead of the sweep cursor: visit-time semantics say a
//     same-cycle wake posted by component i reaches component j this cycle
//     iff j ticks after i, and the heap merges exactly those j into the
//     in-order visit stream.
//   - hold carries mid-sweep wakes that must wait for the next cycle (index
//     behind the cursor, or wake time in the future); they stay queued and
//     merge into the next sweep.
//   - wheel is the timer wheel (one node per component, sized at the first
//     sweep), touched only by the shard's ticking goroutine (file from
//     leave, expire at the top of the sweep) and read by the stepping
//     goroutine at boundaries (earliest).
type activeSet struct {
	pend []int32
	cnt  atomic.Int32
	head int32

	active []int32
	next   []int32 // double buffer: the sweep emits survivors here
	newly  []int32 // scratch: wakes and expiries collected at cycle start, then sorted
	late   []int32 // min-heap of same-cycle wakes ahead of the sweep cursor
	hold   []int32 // mid-sweep wakes deferred to the next cycle

	wheel Wheel
}

// init empties the wheel.
func (as *activeSet) init() { as.wheel.Init() }

// register adds component idx to the set (initially awake, matching the
// Activity zero value) and links a, when non-nil, for wake enqueueing.
// Registration happens between runs, on the stepping goroutine.
func (as *activeSet) register(idx int32, a *Activity) {
	as.active = append(as.active, idx)
	// Two mailbox slots per component bound the enqueue count between two
	// drains: every enqueue needs a false→true edge of the queued flag, and
	// a component's flag can fall at most once per sweep — in leave, which
	// runs only from a visit, and the in-order merge visits each component at
	// most once per cycle (a timer coming due raises the flag without a slot).
	as.pend = append(as.pend, 0, 0)
	if a != nil {
		a.set = as
		a.idx = idx
		a.queued.Store(true)
	}
}

// enqueue claims a mailbox slot for idx. Callers hold the queued flag (they
// won its false→true CAS), which both dedups and bounds slot usage.
func (as *activeSet) enqueue(idx int32) {
	i := as.cnt.Add(1) - 1
	if int(i) >= len(as.pend) {
		panic("sim: active-set wake mailbox overflow (queued invariant broken)")
	}
	as.pend[i] = idx
}

// leave takes the component being visited out of the worklist, asleep until
// a later cycle w: parked when w is Never, on a timer otherwise. The store
// cannot race a producer — none runs while the shard ticks except this
// goroutine, which is here.
func (as *activeSet) leave(a *Activity, w Cycle) {
	a.queued.Store(false)
	if w != Never {
		as.file(a.idx, w)
	}
}

// file makes sure component idx holds a timer that fires no later than the
// future cycle w. An entry it already holds under an earlier cycle will do
// (every filed key is ahead of the clock — see earliest — and expiry
// re-validates); a later one is moved.
func (as *activeSet) file(idx int32, w Cycle) {
	if k := as.wheel.Key(idx); k != 0 {
		if k <= w {
			return
		}
		as.wheel.Unlink(idx)
	}
	as.wheel.File(idx, w)
}

// expire drains the bucket of cycle now, appending to due the components
// whose sleep has run out (now queued). Entries filed for a later lap stay;
// every other entry is settled against the component's present state — it
// carries no more authority than that: dropped if the component was woken
// early and is in the worklist or has since parked, re-filed if it sleeps
// until later.
func (as *activeSet) expire(acts []*Activity, now Cycle, due []int32) []int32 {
	for i := as.wheel.First(now); i >= 0; {
		idx := i
		i = as.wheel.Next(idx)
		if as.wheel.Key(idx) > now {
			continue
		}
		as.wheel.Unlink(idx)
		a := acts[idx]
		if a.queued.Load() {
			continue
		}
		if w := a.wakeAt.Load(); w <= now {
			a.queued.Store(true)
			due = append(due, idx)
		} else if w != Never {
			as.file(idx, w)
		}
	}
	return due
}

// earliest reports the smallest filed key, Never with no timer pending: a
// lower bound on the wake time of every component on a timer, given that from
// is the next cycle to be swept. The engine never jumps past it, so a bucket
// is always drained in the cycle of its smallest key and every filed key
// stays ahead of the clock. (A key may undershoot its component's wake time,
// or outlive its sleep; the engine then steps a cycle in which the entry is
// re-filed or dropped and nothing ticks, and asks again.)
func (as *activeSet) earliest(from Cycle) Cycle { return as.wheel.Earliest(from) }

// pending reports the earliest wake time among the components in the
// worklist, Never if it is empty, and ok=false if one of them has no
// Activity (it ticks every cycle).
func (as *activeSet) pending(acts []*Activity) (min Cycle, ok bool) {
	min = Never
	for _, list := range [...][]int32{as.active, as.hold, as.pend[as.head:as.cnt.Load()]} {
		for _, idx := range list {
			a := acts[idx]
			if a == nil {
				return 0, false
			}
			if w := a.wakeAt.Load(); w < min {
				min = w
			}
		}
	}
	return min, true
}

// sweep runs one cycle of active-set scheduling: collect the mailbox and the
// timers due now, merge them with the standing active list in index order,
// Tick every component visited, and emit the ones still awake as the next
// cycle's active list. It reports whether any Tick ran; when none did, the
// worklist is empty and earliest bounds the next cycle anything can happen.
//
// Worklist growth (newly/late/hold/next) is bounded by the shard's component
// count, and all four buffers are reused across cycles, so the sweep is
// allocation-free in steady state.
func (as *activeSet) sweep(tickers []Ticker, acts []*Activity, now Cycle) (ticked bool) {
	// Allocates once, at the component count (again only for a component
	// registered after the first run): the wheel never grows while the
	// simulation runs.
	as.wheel.Grow(len(tickers))
	// Collect wakes parked since the last sweep: holdovers classified
	// next-cycle mid-sweep, then everything enqueued from the shard's own
	// flushes, boundary drains, and step hooks, then expiring timers. No
	// producer runs while this drain resets the mailbox (the shard's own
	// components have not ticked yet this cycle, and cross-shard producers
	// only run at boundaries).
	newly := append(as.newly[:0], as.hold...)
	as.hold = as.hold[:0]
	n := as.cnt.Load()
	for i := as.head; i < n; i++ {
		newly = append(newly, as.pend[i])
	}
	as.head = 0
	as.cnt.Store(0)
	newly = as.expire(acts, now, newly)
	slices.Sort(newly)
	as.newly = newly

	active := as.active
	out := as.next[:0]
	ai, ni := 0, 0
	for {
		// Visit the smallest index among the three in-order streams, which
		// reproduces the registration-order schedule of the full sweep.
		idx := int32(0)
		src := -1
		if ai < len(active) {
			idx, src = active[ai], 0
		}
		if ni < len(newly) && (src < 0 || newly[ni] < idx) {
			idx, src = newly[ni], 1
		}
		if len(as.late) > 0 && (src < 0 || as.late[0] < idx) {
			idx, src = as.late[0], 2
		}
		switch src {
		case -1:
			as.active, as.next = out, active
			return ticked
		case 0:
			ai++
		case 1:
			ni++
		case 2:
			latePop(&as.late)
		}
		a := acts[idx]
		if a != nil {
			if w := a.wakeAt.Load(); w > now {
				// Woken for a cycle still to come (or put to sleep between
				// runs): not due, so it waits on a timer, not in the list.
				as.leave(a, w)
				continue
			}
		}
		tickers[idx].Tick(now)
		ticked = true
		var w Cycle // a component without an Activity is always awake
		if a != nil {
			w = a.wakeAt.Load()
		}
		if w > now+1 {
			as.leave(a, w)
		} else {
			// Awake, or due at the very next sweep: over half of a loaded
			// mesh's sleeps are these, and a round trip through the wheel and
			// the sort costs more than keeping the list slot.
			out = append(out, idx)
		}
		// Classify wakes the Tick just posted: an index ahead of the cursor
		// whose wake is due now ticks this cycle (the full sweep would read
		// its wakeAt later in the same pass); everything else holds to the
		// next cycle (the full sweep already passed it).
		if m := as.cnt.Load(); m > as.head {
			for ; as.head < m; as.head++ {
				widx := as.pend[as.head]
				if widx > idx && acts[widx].wakeAt.Load() <= now {
					latePush(&as.late, widx)
				} else {
					as.hold = append(as.hold, widx)
				}
			}
		}
	}
}

// latePush inserts v into the min-heap.
func latePush(h *[]int32, v int32) {
	s := append(*h, v)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p] <= s[i] {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
	*h = s
}

// latePop removes and returns the heap minimum.
func latePop(h *[]int32) int32 {
	s := *h
	v := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && s[l] < s[m] {
			m = l
		}
		if r < n && s[r] < s[m] {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return v
}
