package sim

import "math/bits"

// activeSet is one shard's scheduler state: one bit per component saying
// whether it is queued, and the timers of components asleep until a later
// cycle. The sweep touches components that Tick (plus the odd one that turns
// out not to be due) and nothing else: a component waiting for a wake edge or
// for a finite cycle costs zero instructions per cycle.
//
// A component is in exactly one of two states, told apart by its bit in q:
//
//   - queued (bit set): the next sweep visits it — this one, if the bit is
//     set ahead of the sweep cursor.
//   - unqueued (bit clear): it is parked at Never, or it holds a timer filed
//     under a cycle k with now < k <= wakeAt. There is one way out of the
//     queue (leave, from a visit that finds the component asleep past the
//     next cycle) and two ways back in: Activity.WakeAt's enqueue when a
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
//   - The components themselves are the shard's comp table, which the sweep,
//     expire and pending take as an argument: component i is comps[i], its
//     Ticker and its Activity side by side, so a visit reads one entry.
//   - q has bit i set iff component i is queued, and sum has bit w set iff
//     q[w] != 0, so a sweep over a shard of mostly sleeping components reads
//     one summary word per 4096 of them, not one word per 64. Both grow in
//     register, between runs. Producers (WakeAt) set bits with a plain OR:
//     they run either on the shard's own goroutine during its free run (its
//     Ticks and its own flushes), or on the stepping goroutine at window
//     boundaries (step hooks, the deferred drain, the cross flushers, the
//     exchange) — never concurrently with each other or with the sweep,
//     because no shard runs at a boundary, and the worker release/join
//     channels order the boundary's writes before the next window's sweeps.
//   - wheel is the timer wheel (one node per component, sized at the first
//     sweep), touched only by the shard's ticking goroutine (file from
//     leave, expire at the top of the sweep) and read by the stepping
//     goroutine at boundaries (earliest).
//   - enqs counts enqueues, so the sweep can tell whether a Tick queued
//     anything. ahead, mark and peek are the sweep's lookahead (see sweep):
//     the next cursor, the enqs it was found at, and the scratch word it
//     loads a wake time into. All four are written on the same goroutines
//     as q.
//   - ticks, notDue and filed are the shard's work counts (Engine.Stats).
type activeSet struct {
	q   []uint64
	sum []uint64

	wheel Wheel

	enqs, mark uint32
	ahead      int32
	peek       Cycle

	ticks, notDue, filed int64
}

// init empties the wheel.
func (as *activeSet) init() { as.wheel.Init() }

// register adds component idx, the next index, to the set (queued, matching
// the Activity zero value, which is awake) and links a, when non-nil, for
// wake enqueueing. Registration happens between runs, on the stepping
// goroutine.
func (as *activeSet) register(idx int32, a *Activity) {
	if int(idx>>6) == len(as.q) {
		as.q = append(as.q, 0)
		if len(as.q) > len(as.sum)<<6 {
			as.sum = append(as.sum, 0)
		}
	}
	as.enqueue(idx)
	if a != nil {
		a.set = as
		a.idx = idx
	}
}

// enqueue sets idx's bit and its word's summary bit.
func (as *activeSet) enqueue(idx int32) {
	as.enqs++
	w := idx >> 6
	as.q[w] |= 1 << (idx & 63)
	as.sum[w>>6] |= 1 << (w & 63)
}

// leave takes the component being visited out of the queue, asleep until a
// later cycle w: parked when w is Never, on a timer otherwise.
func (as *activeSet) leave(idx int32, w Cycle) {
	wi := idx >> 6
	if as.q[wi] &^= 1 << (idx & 63); as.q[wi] == 0 {
		as.sum[wi>>6] &^= 1 << (wi & 63)
	}
	if w != Never {
		as.file(idx, w)
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
	as.filed++
}

// expire drains the bucket of cycle now, queueing the components whose sleep
// has run out. Entries filed for a later lap stay; every other entry is
// settled against the component's present state — it carries no more
// authority than that: dropped if the component was woken early and is
// queued or has since parked, re-filed if it sleeps until later.
func (as *activeSet) expire(comps []comp, now Cycle) {
	for i := as.wheel.First(now); i >= 0; {
		idx := i
		i = as.wheel.Next(idx)
		if as.wheel.Key(idx) > now {
			continue
		}
		as.wheel.Unlink(idx)
		if as.q[idx>>6]&(1<<(idx&63)) != 0 {
			continue
		}
		if w := comps[idx].a.wakeAt; w <= now {
			as.enqueue(idx)
		} else if w != Never {
			as.file(idx, w)
		}
	}
}

// earliest reports the smallest filed key, Never with no timer pending: a
// lower bound on the wake time of every component on a timer, given that from
// is the next cycle to be swept. The engine never jumps past it, so a bucket
// is always drained in the cycle of its smallest key and every filed key
// stays ahead of the clock. (A key may undershoot its component's wake time,
// or outlive its sleep; the engine then steps a cycle in which the entry is
// re-filed or dropped and nothing ticks, and asks again.)
func (as *activeSet) earliest(from Cycle) Cycle { return as.wheel.Earliest(from) }

// pending reports the earliest wake time among the queued components, Never
// if there are none, and ok=false if one of them has no Activity (it ticks
// every cycle).
func (as *activeSet) pending(comps []comp) (min Cycle, ok bool) {
	min = Never
	for si, s := range as.sum {
		for ; s != 0; s &= s - 1 {
			wi := si<<6 | bits.TrailingZeros64(s)
			for m := as.q[wi]; m != 0; m &= m - 1 {
				a := comps[wi<<6|bits.TrailingZeros64(m)].a
				if a == nil {
					return 0, false
				}
				if w := a.wakeAt; w < min {
					min = w
				}
			}
		}
	}
	return min, true
}

// sweep runs one cycle of active-set scheduling: queue the timers due now,
// then visit every queued component in index order — the registration order
// of the full sweep — and Tick the ones that are due. It reports whether any
// Tick ran; when none did, every queued component is asleep and pending and
// earliest bound the next cycle anything can happen.
//
// After every visit the cursor moves to the first queued component past it,
// read from the current words, so a wake posted mid-sweep reaches a
// component ahead of the cursor this cycle and one behind it next cycle: a
// same-cycle wake from component i reaches component j this cycle iff j
// ticks after i, exactly as in the full sweep, which reads j's wakeAt when it
// gets there.
//
// Lookahead: a visit to the last queued component of its bitmap word first
// finds the next queued component through the summary (ahead, found at
// enqueue count mark) and loads its table entry and wake time into peek, so
// on a sparse sweep over a large table those cold misses overlap the Tick
// instead of following it. The lookup is the next cursor unless the Tick
// enqueued something (enqs moved past mark), in which case the cursor is
// found again; a dense sweep pays one summary search per word, as it would
// after the Tick. Whether a visit is the last of its word is known before
// its Tick because a Tick can set bits but never clear one: rest, the
// word's bits past the cursor as last read, only grows, so a visit whose
// rest was not empty always finds a next bit in its word. The lookahead's
// state lives in the set, not in locals: Go spills every live local around
// the Tick call, and a visit inside a word needs none of it.
//
// A visit ends with the component queued if its wake time is at most now+1,
// and out of the queue (leave) otherwise. That is the one grace, the same on
// both exits: a Tick that ends asleep until the next cycle (over half of a
// loaded mesh's sleeps) and a visit that finds the component woken for the
// next cycle keep the bit, because the next sweep will find them due and a
// round trip through the wheel costs more than a second look.
func (as *activeSet) sweep(comps []comp, now Cycle) (ticked bool) {
	// Allocates once, at the component count (again only for a component
	// registered after the first run): the wheel never grows while the
	// simulation runs.
	as.wheel.Grow(len(comps))
	as.expire(comps, now)
	var ticks, notDue int64
	for idx := as.from(0); idx >= 0; {
		wi := idx >> 6
		rest := as.q[wi] & (^uint64(0) << (idx & 63) << 1)
		for {
			if rest == 0 {
				// The lookahead: the next cursor, the enqueue count it holds
				// for, and the next visit's entry and wake time, loaded now.
				as.mark = as.enqs
				if as.ahead = as.from(wi + 1); as.ahead >= 0 {
					if a := comps[as.ahead].a; a != nil {
						as.peek = a.wakeAt
					}
				}
			}
			c := &comps[idx]
			a := c.a
			var w Cycle // a component without an Activity is always awake
			if a != nil {
				w = a.wakeAt
			}
			if w <= now {
				c.t.Tick(now)
				ticks++
				if a != nil {
					w = a.wakeAt
				}
			} else {
				notDue++
			}
			if w > now+1 {
				as.leave(idx, w)
			}
			if m := as.q[wi] & (^uint64(0) << (idx & 63) << 1); m != 0 {
				idx, rest = wi<<6|int32(bits.TrailingZeros64(m)&63), m&(m-1)
				continue
			}
			if idx = as.ahead; as.enqs != as.mark {
				idx = as.from(wi + 1)
			}
			break
		}
	}
	as.ticks += ticks
	as.notDue += notDue
	return ticks > 0
}

// from returns the first queued component in bitmap words wi and later, -1
// if there is none. It reads one summary word per 4096 components skipped.
// (Here and in sweep, the "& 63" on a non-zero word's trailing-zero count
// changes nothing but lets the compiler drop its shift-range check.)
func (as *activeSet) from(wi int32) int32 {
	si := int(wi >> 6)
	if si >= len(as.sum) {
		return -1
	}
	s := as.sum[si] & (^uint64(0) << (wi & 63))
	for s == 0 {
		if si++; si == len(as.sum) {
			return -1
		}
		s = as.sum[si]
	}
	w := si<<6 | bits.TrailingZeros64(s)&63
	return int32(w<<6 | bits.TrailingZeros64(as.q[w])&63)
}
