package sim

import (
	"fmt"
	"slices"
	"testing"
)

// newNappers returns n nappers, napper i following on(i, now): what it does
// when due is a function of its index and the cycle, so the reference
// schedule records the same ticks as every other.
func newNappers(n int, on func(id int, now Cycle) Cycle) []*napper {
	ns := make([]*napper, n)
	for i := range ns {
		ns[i] = &napper{plan: func(now Cycle) Cycle { return on(i, now) }}
	}
	return ns
}

// ticksOf collects every napper's tick cycles.
func ticksOf(ns []*napper) [][]Cycle {
	out := make([][]Cycle, len(ns))
	for i, n := range ns {
		out[i] = n.ticks
	}
	return out
}

// firstDiff reports the first napper whose ticks differ between got and want,
// -1 if none does.
func firstDiff(got, want [][]Cycle) int {
	for i := range want {
		if i >= len(got) || !slices.Equal(got[i], want[i]) {
			return i
		}
	}
	return -1
}

// engineModes are the schedules the scheduler cases run under; the first is
// the reference the others must reproduce.
var engineModes = []struct {
	name string
	mk   func() *Engine
}{
	{"reference", func() *Engine { e := New(); e.SetIdleSkip(false); return e }},
	{"serial", New},
	{"window4", func() *Engine { e := New(); e.SetWindow(4); return e }},
}

// scriptWake is one wake in a bitmap case: napper from, ticking at cycle at,
// calls WakeAt(to) on napper target.
type scriptWake struct {
	at           Cycle
	from, target int
	to           Cycle
}

// scripted returns n nappers that tick at 0, perform the wakes that name
// them, and otherwise sleep until their next scripted wake (parked when there
// is none).
func scripted(n int, wakes []scriptWake) []*napper {
	var ns []*napper
	ns = newNappers(n, func(id int, now Cycle) Cycle {
		next := Never
		for _, w := range wakes {
			switch {
			case w.from != id:
			case w.at == now:
				ns[w.target].act.WakeAt(w.to)
			case w.at > now && w.at < next:
				next = w.at
			}
		}
		return next
	})
	return ns
}

// TestBitmapEdges drives the bitmap scheduler across the places its walk
// changes words: a wake posted mid-sweep for the current cycle reaches a
// component ahead of the cursor this cycle and one behind it next cycle —
// across a word boundary (63/64), across a summary-word boundary (4095/4096)
// and within one word. Every case's ticks must be the reference schedule's;
// want pins the woken napper's ticks there.
func TestBitmapEdges(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		wakes  []scriptWake
		target int
		want   []Cycle
	}{
		{"word boundary ahead 63→64", 130, []scriptWake{{10, 63, 64, 10}}, 64, []Cycle{0, 10}},
		{"word boundary behind 64→63", 130, []scriptWake{{10, 64, 63, 10}}, 63, []Cycle{0, 11}},
		{"summary boundary ahead 4095→4096", 4200, []scriptWake{{10, 4095, 4096, 10}}, 4096, []Cycle{0, 10}},
		{"summary boundary behind 4096→4095", 4200, []scriptWake{{10, 4096, 4095, 10}}, 4095, []Cycle{0, 11}},
		{"same word behind 40→5", 64, []scriptWake{{10, 40, 5, 10}}, 5, []Cycle{0, 11}},
		{"same word behind, last word bit 63→0", 64, []scriptWake{{10, 63, 0, 10}}, 0, []Cycle{0, 11}},
		{"chain across both boundaries", 4200, []scriptWake{
			{10, 0, 4096, 10}, {10, 4096, 64, 10}, {11, 64, 4095, 11}, {11, 4095, 4199, 11},
		}, 4199, []Cycle{0, 11}},
	}
	for _, tc := range cases {
		var ref [][]Cycle
		for _, m := range engineModes {
			t.Run(tc.name+"/"+m.name, func(t *testing.T) {
				e := m.mk()
				defer e.Close()
				ns := scripted(tc.n, tc.wakes)
				for _, n := range ns {
					e.Register(n)
				}
				e.Run(50)
				got := ticksOf(ns)
				if ref == nil {
					ref = got
					if !slices.Equal(got[tc.target], tc.want) {
						t.Fatalf("napper %d ticked at %v, want %v", tc.target, got[tc.target], tc.want)
					}
					return
				}
				if i := firstDiff(got, ref); i >= 0 {
					t.Fatalf("napper %d ticked at %v, reference %v", i, got[i], ref[i])
				}
			})
		}
	}
}

// TestBitmapGrace: a visit that finds its component woken for the next cycle
// keeps the bit, as a Tick that ends asleep until the next cycle does — the
// component is seen twice (not due, then due) and no timer is filed. A wake
// two cycles out is filed on a timer instead. The waker's own sleep to cycle
// 10 is the one other timer.
func TestBitmapGrace(t *testing.T) {
	cases := []struct {
		to                  Cycle
		want                []Cycle
		notDue, timersFiled int64
	}{
		{11, []Cycle{0, 11}, 1, 1},
		{12, []Cycle{0, 12}, 1, 2},
	}
	for _, tc := range cases {
		for _, m := range engineModes {
			t.Run(fmt.Sprintf("to=%d/%s", tc.to, m.name), func(t *testing.T) {
				e := m.mk()
				defer e.Close()
				ns := scripted(8, []scriptWake{{10, 3, 7, tc.to}})
				for _, n := range ns {
					e.Register(n)
				}
				e.Run(30)
				if got := ns[7].ticks; !slices.Equal(got, tc.want) {
					t.Fatalf("napper 7 ticked at %v, want %v", got, tc.want)
				}
				if m.name == "reference" {
					return
				}
				if st := e.Stats(); st.NotDue != tc.notDue || st.TimersFiled != tc.timersFiled {
					t.Fatalf("not due %d, timers filed %d; want %d and %d", st.NotDue, st.TimersFiled, tc.notDue, tc.timersFiled)
				}
			})
		}
	}
}

// TestBitmapLateRegistration registers components after the first Run — the
// first of them opens a new bitmap word and a new summary word — and wakes
// them and the old ones across the seam, against the reference schedule.
func TestBitmapLateRegistration(t *testing.T) {
	const early, late = 4096, 70
	wakes := []scriptWake{
		{8, 4096, 4097, 8},     // ahead, both late
		{9, 4097, 4095, 9},     // behind, late to early
		{12, 4095, 4165, 12},   // ahead, early to the last late word
		{12, 4165, 4096, 13},   // behind, for the next cycle
		{14, 0, 4100, 2000},    // a timer on a late component, past a wheel lap
		{15, 4164, 4163, 1500}, // a timer moved earlier by the next wake
		{16, 1, 4163, 1400},
	}
	var ref [][]Cycle
	for _, m := range engineModes {
		t.Run(m.name, func(t *testing.T) {
			e := m.mk()
			defer e.Close()
			ns := scripted(early+late, wakes)
			for _, n := range ns[:early] {
				e.Register(n)
			}
			e.Run(5)
			for _, n := range ns[early:] {
				e.Register(n)
			}
			e.Run(3000)
			got := ticksOf(ns)
			if ref == nil {
				ref = got
				if want := []Cycle{0, 10, 12}; !slices.Equal(got[4095], want) {
					t.Fatalf("napper 4095 ticked at %v, want %v", got[4095], want)
				}
				if want := []Cycle{5, 2000}; !slices.Equal(got[4100], want) {
					t.Fatalf("napper 4100 ticked at %v, want %v", got[4100], want)
				}
				return
			}
			if i := firstDiff(got, ref); i >= 0 {
				t.Fatalf("napper %d ticked at %v, reference %v", i, got[i], ref[i])
			}
		})
	}
}

// mix is splitmix64's finalizer: the random test's decisions are a hash of
// (seed, napper, cycle), so they do not depend on the order nappers tick in.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// runRandomGraph builds n nappers over a random wake graph and runs them for
// the given cycles under (shards, W), or under the reference schedule when
// skip is false. Every napper has four neighbours; on a tick it wakes up to
// two of them — directly during its Tick (for this cycle or a later one), or
// across shards at the next W=4 lattice point through its CrossFlusher — and
// then sleeps one cycle, a few, past a wheel lap, or for good. Direct wakes
// stay inside the two-shard partition, so every (shards, W) obeys the shard
// discipline.
func runRandomGraph(seed uint64, n int, cycles Cycle, shards int, window Cycle, skip bool) ([][]Cycle, Stats) {
	e := NewParallel(shards)
	defer e.Close()
	e.SetWindow(window)
	e.SetIdleSkip(skip)
	part := func(id int) int { return id * 2 / n }
	nbrs := make([][4]int, n)
	for i := range nbrs {
		for k := range nbrs[i] {
			nbrs[i][k] = int(mix(seed^uint64(i)<<8^uint64(k)) % uint64(n))
		}
	}
	var ns []*napper
	ns = newNappers(n, func(id int, now Cycle) Cycle {
		sh := part(id) % shards
		h := mix(seed ^ uint64(id)<<32 ^ uint64(now))
		for k := 0; k < []int{0, 0, 1, 2}[h&3]; k++ {
			h = mix(h)
			j := nbrs[id][h&3]
			d := Cycle(h >> 8 % 8)
			switch mode := h >> 4 & 3; {
			case mode == 3 || part(j) != part(id):
				markOnce(e.CrossFlusher(sh), &wakeLatch{act: &ns[j].act, at: now - now%4 + 4 + d})
			default:
				ns[j].act.WakeAt(now + []Cycle{0, 0, 1, 2, 5, 40, 0, 3}[d])
			}
		}
		h = mix(h)
		switch r := h >> 16; h & 7 {
		case 0, 1:
			return now + 1
		case 2, 3:
			return now + 2 + Cycle(r%8)
		case 4:
			return now + 10 + Cycle(r%1100)
		case 5:
			return now + 1024 + Cycle(r%3)
		default:
			return Never
		}
	})
	for i, nap := range ns {
		e.RegisterSharded(part(i)%shards, nap)
	}
	e.Run(cycles)
	return ticksOf(ns), e.Stats()
}

// TestBitmapRandomDifferential runs some 5k nappers over a seeded random sleep
// and wake graph at 1 and 2 shards, and holds every napper's tick cycles to
// the reference schedule's at the same W (1 and 4: W is a parameter of the
// model, since it decides when a cross-shard wake lands against a sleep the
// target posts meanwhile).
func TestBitmapRandomDifferential(t *testing.T) {
	const seed, n, cycles = 1995, 5000, 2000
	for _, w := range []Cycle{1, 4} {
		ref, refSt := runRandomGraph(seed, n, cycles, 1, w, false)
		if refSt.Ticks != n*cycles {
			t.Fatalf("reference made %d Tick calls, want %d", refSt.Ticks, n*cycles)
		}
		total := 0
		for _, ts := range ref {
			total += len(ts)
		}
		if total < 10*n {
			t.Fatalf("%d ticks in all: the graph died out", total)
		}
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("W=%d/shards=%d", w, shards), func(t *testing.T) {
				got, st := runRandomGraph(seed, n, cycles, shards, w, true)
				if i := firstDiff(got, ref); i >= 0 {
					t.Fatalf("napper %d ticked at %v, reference %v", i, got[i], ref[i])
				}
				if st.Ticks != int64(total) || st.NotDue == 0 || st.TimersFiled == 0 {
					t.Fatalf("%d ticks recorded, engine counted %+v", total, st)
				}
			})
		}
	}
}
