package node

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"nifdy/internal/nic"
	"nifdy/internal/packet"
	"nifdy/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// callLog is one scenario's ordered record of every call a processor makes
// on its NIC, plus the markers its program writes when a primitive returns.
type callLog struct{ lines []string }

func (l *callLog) add(now sim.Cycle, node int, call, result string) {
	l.lines = append(l.lines, fmt.Sprintf("%6d n%d %-8s %s", now, node, call, result))
}

// scriptNIC is a nic.NIC whose behaviour is a function of the cycle alone:
// arrivals[c] packets become pollable at cycle c, and TrySend is refused
// before cycle sendFrom. It raises both wake edges like the real NICs — on
// every arrival, and at sendFrom — ticks every cycle, before its processor,
// and logs every processor call (a nil log keeps it allocation-free for the
// benchmarks).
type scriptNIC struct {
	node     int
	log      *callLog
	now      sim.Cycle
	sendFrom sim.Cycle
	arrivals map[sim.Cycle]int
	// every, when positive, adds one arrival at each multiple of it.
	every sim.Cycle
	// reorder marks the arrival sequence numbers tagged TagNeedsReorder.
	reorder map[uint64]bool
	seq     uint64
	arr     []*packet.Packet
	proc    *sim.Activity
	pool    packet.Pool
	stats   nic.Stats
}

func (s *scriptNIC) Tick(now sim.Cycle) {
	s.now = now
	if now == s.sendFrom && s.proc != nil {
		s.proc.Wake()
	}
	n := s.arrivals[now]
	if s.every > 0 && now%s.every == 0 {
		n++
	}
	for i := 0; i < n; i++ {
		s.seq++
		pk := s.pool.Get()
		pk.ID, pk.Src, pk.Dst, pk.Words = s.seq, s.node+1, s.node, 8
		if s.reorder[s.seq] {
			pk.Meta.Tag = TagNeedsReorder
		}
		s.arr = append(s.arr, pk)
		if s.proc != nil {
			s.proc.Wake()
		}
	}
}

func (s *scriptNIC) Node() int { return s.node }

func (s *scriptNIC) TrySend(now sim.Cycle, p *packet.Packet) bool {
	ok := now >= s.sendFrom
	if s.log != nil {
		s.log.add(now, s.node, "TrySend", fmt.Sprintf("pkt=%d %v", p.ID, ok))
	}
	return ok
}

func (s *scriptNIC) Recv(now sim.Cycle) (*packet.Packet, bool) {
	if len(s.arr) == 0 {
		if s.log != nil {
			s.log.add(now, s.node, "Recv", "miss")
		}
		return nil, false
	}
	pk := s.arr[0]
	// Shift rather than reslice: the backing array is reused forever.
	s.arr = s.arr[:copy(s.arr, s.arr[1:])]
	if s.log != nil {
		s.log.add(now, s.node, "Recv", fmt.Sprintf("pkt=%d", pk.ID))
	}
	return pk, true
}

func (s *scriptNIC) Pending() int {
	if s.log != nil {
		s.log.add(s.now, s.node, "Pending", fmt.Sprint(len(s.arr)))
	}
	return len(s.arr)
}

func (s *scriptNIC) Idle() bool                  { return len(s.arr) == 0 }
func (s *scriptNIC) ObserveProc(a *sim.Activity) { s.proc = a }
func (s *scriptNIC) Pool() *packet.Pool          { return &s.pool }
func (s *scriptNIC) Stats() *nic.Stats           { return &s.stats }

// scenario is a set of scripted NICs, one program per NIC at CM-5 costs, and
// a cycle budget.
type scenario struct {
	name  string
	nics  []*scriptNIC
	progs func(l *callLog) []Program
	max   sim.Cycle
}

// run wires the scenario on a serial engine (NIC before its processor, as
// harness.Build registers them), runs it to completion and returns the log.
func (sc scenario) run(t *testing.T) (*callLog, []*Proc) {
	t.Helper()
	log := &callLog{}
	eng := sim.New()
	progs := sc.progs(log)
	procs := make([]*Proc, len(sc.nics))
	for i, n := range sc.nics {
		n.node, n.log = i, log
		eng.Register(n)
		procs[i] = NewProc(i, n, CM5Costs(), progs[i])
		eng.Register(procs[i])
		procs[i].Start()
	}
	t.Cleanup(func() {
		for _, p := range procs {
			p.Stop()
		}
	})
	if !eng.RunUntil(allDone(procs), sc.max) {
		t.Fatalf("%s: programs did not finish in %d cycles", sc.name, sc.max)
	}
	return log, procs
}

func outPkt(id uint64) *packet.Packet {
	return &packet.Packet{ID: id, Words: 8, Dialog: packet.NoDialog, Class: packet.Request}
}

// mark returns a program-side logger: the cycle a primitive returned at.
func mark(l *callLog, p *Proc) func(what, result string) {
	return func(what, result string) { l.add(p.Now(), p.ID(), what, result) }
}

// callLogScenarios are the three shapes the engine-side primitives must
// reproduce call for call: a send stalled behind NIC backpressure with
// arrivals before and during the stall, receives that miss their poll, and a
// barrier that services arrivals while parked.
func callLogScenarios() []scenario {
	return []scenario{
		{
			// Two arrivals are waiting when Send is called (the CMAM pre-send
			// service, one with the reorder penalty); the NIC refuses the
			// packet until cycle 395 while three more arrive mid-stall; the
			// second Send goes straight through. The handled arrivals come
			// back from the inbox for free.
			name: "send-stall",
			nics: []*scriptNIC{{
				sendFrom: 395,
				arrivals: map[sim.Cycle]int{0: 2, 185: 1, 186: 1, 330: 1},
				reorder:  map[uint64]bool{2: true, 4: true},
			}},
			progs: func(l *callLog) []Program {
				return []Program{func(p *Proc) {
					m := mark(l, p)
					p.Send(outPkt(100))
					m("Send", "returned")
					p.Send(outPkt(101))
					m("Send", "returned")
					for p.HasPending() {
						m("Recv", fmt.Sprintf("returned pkt=%d", p.Recv().ID))
					}
				}}
			},
			max: 2000,
		},
		{
			// Recv misses five polls before its packet lands; RecvOr polls
			// until its stop predicate turns; one bare Poll misses; a second
			// RecvOr hits.
			name: "poll-miss",
			nics: []*scriptNIC{{
				arrivals: map[sim.Cycle]int{100: 1, 350: 1},
				reorder:  map[uint64]bool{2: true},
			}},
			progs: func(l *callLog) []Program {
				return []Program{func(p *Proc) {
					m := mark(l, p)
					m("Recv", fmt.Sprintf("returned pkt=%d", p.Recv().ID))
					_, ok := p.RecvOr(func() bool { return p.Now() >= 300 })
					m("RecvOr", fmt.Sprintf("returned %v", ok))
					_, ok = p.Poll()
					m("Poll", fmt.Sprintf("returned %v", ok))
					pk, ok := p.RecvOr(func() bool { return false })
					m("RecvOr", fmt.Sprintf("returned pkt=%d %v", pk.ID, ok))
				}}
			},
			max: 2000,
		},
		{
			// Node 0 sends once (handling one arrival into its inbox), then
			// parks at the barrier: the inbox packet and three arrivals are
			// serviced while parked, the last still being charged when node 1
			// (busy for 300 cycles) completes the barrier. A second generation
			// follows at once, node 1 first this time.
			name: "barrier",
			nics: []*scriptNIC{
				{arrivals: map[sim.Cycle]int{0: 1, 150: 1, 151: 1, 290: 1, 420: 1},
					reorder: map[uint64]bool{3: true}},
				{arrivals: map[sim.Cycle]int{310: 1}},
			},
			progs: func(l *callLog) []Program {
				b := NewBarrier(2)
				handler := func(p *Proc) func(*packet.Packet) {
					return func(pk *packet.Packet) {
						l.add(p.Now(), p.ID(), "handler", fmt.Sprintf("pkt=%d", pk.ID))
					}
				}
				return []Program{
					func(p *Proc) {
						m := mark(l, p)
						p.Send(outPkt(100))
						m("Send", "returned")
						p.Barrier(b, handler(p))
						m("Barrier", "returned")
						p.Consume(100)
						p.Barrier(b, handler(p))
						m("Barrier", "returned")
					},
					func(p *Proc) {
						m := mark(l, p)
						p.Consume(300)
						p.Barrier(b, nil)
						m("Barrier", "returned")
						p.Barrier(b, handler(p))
						m("Barrier", "returned")
					},
				}
			},
			max: 5000,
		},
	}
}

// TestCallLogGolden pins the (cycle, call, result) sequence of every NIC call
// the blocking primitives make. testdata/calllog_percycle.golden was
// generated from the per-cycle-resume implementation these primitives
// replaced, which retried a refused send every cycle; testdata/calllog.golden
// is the same log without the retries a sleeping sender no longer makes
// (TestCallLogOnlyDropsFailedRetries holds the two together).
func TestCallLogGolden(t *testing.T) {
	var sb strings.Builder
	for _, sc := range callLogScenarios() {
		log, _ := sc.run(t)
		fmt.Fprintf(&sb, "# %s\n%s\n", sc.name, strings.Join(log.lines, "\n"))
	}
	path := filepath.Join("testdata", "calllog.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("call log diverges from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("call log length %d lines, %s has %d", len(gl), path, len(wl))
	}
}

// pollMiss is the poll-miss scenario's program as a step machine: the
// step forms of Recv, RecvOr and Poll, each result taken with Received.
type pollMiss struct {
	l    *callLog
	step int
}

func (m *pollMiss) Step(p *Proc) bool {
	mk := mark(m.l, p)
	switch m.step {
	case 0:
		p.IssueRecv()
	case 1:
		mk("Recv", fmt.Sprintf("returned pkt=%d", p.Received().ID))
		p.IssueRecvOr(func() bool { return p.Now() >= 300 })
	case 2:
		mk("RecvOr", fmt.Sprintf("returned %v", p.Received() != nil))
		p.IssuePoll()
	case 3:
		mk("Poll", fmt.Sprintf("returned %v", p.Received() != nil))
		p.IssueRecvOr(func() bool { return false })
	default:
		pk := p.Received()
		mk("RecvOr", fmt.Sprintf("returned pkt=%d %v", pk.ID, pk != nil))
		return false
	}
	m.step++
	return true
}

// TestMachineCallLog runs the poll-miss scenario as a step machine handed
// over by Run: every NIC call and every return must land on the cycle the
// closure's did (the closure's log is calllog.golden's), with one goroutine
// handoff in all, and Run never returns.
func TestMachineCallLog(t *testing.T) {
	sc := callLogScenarios()[1]
	if sc.name != "poll-miss" {
		t.Fatalf("scenario 1 is %q", sc.name)
	}
	want, _ := sc.run(t)
	sc.nics = []*scriptNIC{{arrivals: sc.nics[0].arrivals, reorder: sc.nics[0].reorder}}
	sc.progs = func(l *callLog) []Program {
		return []Program{func(p *Proc) {
			p.Run(&pollMiss{l: l})
			t.Error("Run returned")
		}}
	}
	got, procs := sc.run(t)
	if g, w := strings.Join(got.lines, "\n"), strings.Join(want.lines, "\n"); g != w {
		t.Fatalf("machine call log differs from the closure's:\n got:\n%s\nwant:\n%s", g, w)
	}
	if w := procs[0].Work(); w.Handoffs != 1 {
		t.Errorf("%d handoffs over %d primitives, want 1 (the start, into Run)", w.Handoffs, w.Primitives)
	}
}

// spinUntil yields the P until cond holds; it waits on the event, never on
// the wall clock, and gives up after a bounded number of yields.
func spinUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 1<<22; i++ {
		if cond() {
			return
		}
		runtime.Gosched()
	}
	t.Fatalf("gave up waiting for %s", what)
}

// runner is a machine that calls Run, which only a Program may.
type runner struct{}

func (runner) Step(p *Proc) bool {
	p.Run(&sender{outPkt(1)})
	return true
}

// TestRunHandsOver is the rest of Run's contract (TestMachineCallLog holds
// the handed-over machine to the closure's NIC calls and Run to never
// returning): the program goroutine starts at the processor's first step
// and exits at Run, so processors whose program is a call to Run hold no
// goroutine before their first cycle or after it, and Run is a Program's
// call alone.
func TestRunHandsOver(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("no goroutines/shards=%d", shards), func(t *testing.T) {
			const n = 64
			eng := sim.NewParallel(shards)
			t.Cleanup(eng.Close)
			base := runtime.NumGoroutine()
			procs := make([]*Proc, n)
			for i := range procs {
				m := &sender{outPkt(uint64(i + 1))}
				nic := &scriptNIC{node: i}
				eng.RegisterSharded(i%shards, nic)
				procs[i] = NewProc(i, nic, CM5Costs(), func(p *Proc) { p.Run(m) })
				eng.RegisterSharded(i%shards, procs[i])
				procs[i].Start()
				t.Cleanup(procs[i].Stop)
			}
			if g := runtime.NumGoroutine(); g > base {
				t.Fatalf("%d goroutines after Start, %d before", g, base)
			}
			eng.Step()
			spinUntil(t, "the program goroutines to exit", func() bool { return runtime.NumGoroutine() <= base })
			eng.Run(1000)
			for _, p := range procs {
				if w := p.Work(); w.Handoffs != 1 || w.Primitives < 20 {
					t.Fatalf("proc %d: %d handoffs over %d primitives, want 1 over at least 20", p.ID(), w.Handoffs, w.Primitives)
				}
			}
		})
	}
	t.Run("Stop before the first tick", func(t *testing.T) {
		p := NewProc(0, &scriptNIC{}, CM5Costs(), func(p *Proc) { t.Error("the program ran") })
		p.Start()
		stopped := make(chan struct{})
		go func() {
			p.Stop()
			close(stopped)
		}()
		spinUntil(t, "Stop to return", func() bool {
			select {
			case <-stopped:
				return true
			default:
				return false
			}
		})
		if !p.Done() {
			t.Fatal("Stop did not finish the proc")
		}
		p.Tick(0) // a stopped processor never starts its program
	})
	t.Run("Run from a Machine panics", func(t *testing.T) {
		p := NewProc(0, &scriptNIC{}, CM5Costs(), func(p *Proc) { p.Run(runner{}) })
		p.Start()
		defer p.Stop()
		defer func() {
			if r, _ := recover().(string); !strings.Contains(r, "Run called outside") {
				t.Fatalf("recovered %q, want Run's misuse panic", r)
			}
		}()
		p.Tick(0)
	})
}

// TestCallLogOnlyDropsFailedRetries is the rule calllog.golden was regenerated
// under: it is calllog_percycle.golden with lines removed, every removed line
// is a refused TrySend or an empty Recv, and every one lies inside a stall —
// after a refused TrySend of the same packet, before the one that succeeds.
// Every call that did something keeps its cycle.
func TestCallLogOnlyDropsFailedRetries(t *testing.T) {
	read := func(name string) []string {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	}
	old, cur := read("calllog_percycle.golden"), read("calllog.golden")
	stalled, removed, j := false, 0, 0
	for i, ln := range old {
		switch {
		case strings.Contains(ln, "TrySend") && strings.HasSuffix(ln, "false"):
			stalled = true
		case strings.Contains(ln, "TrySend") || strings.HasPrefix(ln, "#"):
			stalled = false
		}
		if j < len(cur) && cur[j] == ln {
			j++
			continue
		}
		removed++
		failed := strings.HasSuffix(ln, "false") || strings.HasSuffix(ln, "miss")
		if !failed || !stalled {
			t.Fatalf("calllog_percycle.golden line %d is missing from calllog.golden and is not a failed retry inside a stall:\n%s", i+1, ln)
		}
	}
	if j != len(cur) {
		t.Fatalf("calllog.golden line %d is not in calllog_percycle.golden:\n%s", j+1, cur[j])
	}
	if removed == 0 {
		t.Fatal("calllog.golden still has every per-cycle retry")
	}
}

// count reports the log lines containing every one of subs.
func (l *callLog) count(subs ...string) int {
	n := 0
lines:
	for _, ln := range l.lines {
		for _, s := range subs {
			if !strings.Contains(ln, s) {
				continue lines
			}
		}
		n++
	}
	return n
}

// TestOneResumePerPrimitive is the handoff contract: however many cycles a
// primitive stalls, polls or parks for, and however many arrivals it services
// on the way, the program goroutine is resumed exactly once — when it returns.
func TestOneResumePerPrimitive(t *testing.T) {
	cases := []struct {
		name string
		nics []*scriptNIC
		// prim is the primitive under count on node 0; others get nodes 1+.
		prim   func(p *Proc, b *Barrier)
		others func(p *Proc, b *Barrier)
		// stalls, misses and serviced are the refused TrySends, empty polls
		// and arrivals node 0 must have worked through meanwhile.
		stalls, misses, serviced int
	}{
		{
			name: "Send/stalled 200 cycles, 3 arrivals",
			nics: []*scriptNIC{{sendFrom: 200, arrivals: map[sim.Cycle]int{60: 1, 100: 1, 101: 1}}},
			prim: func(p *Proc, _ *Barrier) { p.Send(outPkt(100)) },
			// Refused once after T_send, then asleep; refused again when each
			// arrival wakes it or its handler completes. One empty poll
			// before T_send, one before the sleep.
			stalls: 4, misses: 2, serviced: 3,
		},
		{
			name:   "Recv/5 poll misses",
			nics:   []*scriptNIC{{arrivals: map[sim.Cycle]int{100: 1}}},
			prim:   func(p *Proc, _ *Barrier) { p.Recv() },
			misses: 5, serviced: 1,
		},
		{
			name: "RecvOr/stopped after 4 poll misses",
			nics: []*scriptNIC{{}},
			prim: func(p *Proc, _ *Barrier) {
				p.RecvOr(func() bool { return p.Now() >= 80 })
			},
			misses: 4,
		},
		{
			name: "Barrier/3 serviced arrivals",
			nics: []*scriptNIC{{arrivals: map[sim.Cycle]int{50: 1, 51: 1, 200: 1}}, {}},
			prim: func(p *Proc, b *Barrier) { p.Barrier(b, func(*packet.Packet) {}) },
			others: func(p *Proc, b *Barrier) {
				p.Consume(300)
				p.Barrier(b, nil)
			},
			// One empty poll before each of the three parks.
			misses: 3, serviced: 3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resumes int64
			sc := scenario{name: tc.name, nics: tc.nics, max: 5000,
				progs: func(*callLog) []Program {
					b := NewBarrier(len(tc.nics))
					progs := []Program{func(p *Proc) {
						before := p.work.Handoffs
						tc.prim(p, b)
						resumes = p.work.Handoffs - before
					}}
					for range tc.nics[1:] {
						progs = append(progs, func(p *Proc) { tc.others(p, b) })
					}
					return progs
				}}
			log, _ := sc.run(t)
			if resumes != 1 {
				t.Errorf("program resumed %d times inside the primitive, want 1", resumes)
			}
			if got := log.count(" n0 TrySend", "false"); got != tc.stalls {
				t.Errorf("%d refused TrySends, want %d", got, tc.stalls)
			}
			if got := log.count(" n0 Recv", "miss"); got != tc.misses {
				t.Errorf("%d empty polls, want %d", got, tc.misses)
			}
			if got := log.count(" n0 Recv", "pkt="); got != tc.serviced {
				t.Errorf("%d arrivals serviced, want %d", got, tc.serviced)
			}
		})
	}
}

// TestStalledSendSleeps is the cost contract of a send behind NIC
// backpressure: the processor offers the packet once when T_send is paid,
// once more whenever an arrival wakes it or the arrival's handler completes
// with the send still pending, and once when the NIC raises its room edge —
// 2 + M TrySend calls for M arrivals serviced back to back, however long the
// stall, plus one for each burst of arrivals that ends with the NIC still
// full (the processor must look before it sleeps again). And one resumption.
func TestStalledSendSleeps(t *testing.T) {
	const tSend = 40 // the first TrySend: Send is called at cycle 0
	cases := []struct {
		name     string
		stall    sim.Cycle // TrySend is refused for this many cycles after tSend
		arrivals map[sim.Cycle]int
		// serviced is M; resleeps counts the bursts that end inside the stall.
		serviced, resleeps int
		// returns is the cycle Send returns in: the room edge's, or the end of
		// the handler that was running when it was raised.
		returns sim.Cycle
	}{
		{name: "K=1", stall: 1, returns: tSend + 1},
		{name: "K=50", stall: 50, returns: tSend + 50},
		{name: "K=50, M=1 running past the stall", stall: 50,
			arrivals: map[sim.Cycle]int{tSend + 10: 1}, serviced: 1, returns: tSend + 10 + 60},
		{name: "K=5000", stall: 5000, returns: tSend + 5000},
		{name: "K=5000, M=3 in one burst", stall: 5000,
			arrivals: map[sim.Cycle]int{1000: 2, 1001: 1}, serviced: 3, resleeps: 1, returns: tSend + 5000},
		{name: "K=5000, M=4 in three bursts, the last running past the stall", stall: 5000,
			arrivals: map[sim.Cycle]int{100: 1, 2000: 2, tSend + 4990: 1}, serviced: 4, resleeps: 2,
			returns: tSend + 4990 + 60},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resumes int64
			var returned sim.Cycle
			sc := scenario{name: tc.name, max: 10000,
				nics: []*scriptNIC{{sendFrom: tSend + tc.stall, arrivals: tc.arrivals}},
				progs: func(*callLog) []Program {
					return []Program{func(p *Proc) {
						before := p.work.Handoffs
						p.Send(outPkt(100))
						resumes, returned = p.work.Handoffs-before, p.Now()
					}}
				}}
			log, _ := sc.run(t)
			if resumes != 1 {
				t.Errorf("program resumed %d times inside Send, want 1", resumes)
			}
			if returned != tc.returns {
				t.Errorf("Send returned at cycle %d, want %d", returned, tc.returns)
			}
			if got, want := log.count("TrySend"), 2+tc.serviced+tc.resleeps; got != want {
				t.Errorf("%d TrySend calls, want %d", got, want)
			}
			if got := log.count("TrySend", "true"); got != 1 {
				t.Errorf("%d accepted TrySends, want 1", got)
			}
			if got := log.count("Recv", "pkt="); got != tc.serviced {
				t.Errorf("%d arrivals serviced, want %d", got, tc.serviced)
			}
		})
	}
}

// TestStopInsideOperation stops a processor while each engine-side operation
// is in progress: the program must unwind without returning from the
// primitive, the packets the operation held must stay visible to the census,
// and the engine must keep stepping.
func TestStopInsideOperation(t *testing.T) {
	cases := []struct {
		name string
		nic  *scriptNIC
		prog func(p *Proc)
		// held is what AuditHeld must still report after the stop.
		held []string
	}{
		{"Consume", &scriptNIC{}, func(p *Proc) { p.Consume(1 << 40) }, nil},
		{"Recv polling", &scriptNIC{}, func(p *Proc) { p.Recv() }, nil},
		{"RecvOr polling", &scriptNIC{}, func(p *Proc) { p.RecvOr(func() bool { return false }) }, nil},
		{"Recv charging", &scriptNIC{arrivals: map[sim.Cycle]int{480: 1}},
			func(p *Proc) { p.Recv() }, []string{"receive handler"}},
		{"Send draining", &scriptNIC{arrivals: map[sim.Cycle]int{0: 20}},
			func(p *Proc) { p.Send(outPkt(100)) }, []string{"inbox", "receive handler", "unsent"}},
		{"Send stalled", &scriptNIC{sendFrom: sim.Never, arrivals: map[sim.Cycle]int{100: 1}},
			func(p *Proc) { p.Send(outPkt(100)) }, []string{"inbox", "unsent"}},
		{"Barrier parked", &scriptNIC{},
			func(p *Proc) { p.Barrier(NewBarrier(2), nil) }, nil},
		{"Barrier charging", &scriptNIC{arrivals: map[sim.Cycle]int{480: 1}},
			func(p *Proc) { p.Barrier(NewBarrier(2), nil) }, []string{"receive handler"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			returned := false
			eng := sim.New()
			eng.Register(tc.nic)
			p := NewProc(0, tc.nic, CM5Costs(), func(p *Proc) {
				tc.prog(p)
				returned = true
			})
			eng.Register(p)
			p.Start()
			eng.Run(500)
			p.Stop()
			if !p.Done() {
				t.Fatal("Stop did not finish the proc")
			}
			if returned {
				t.Fatal("the primitive returned")
			}
			p.Stop()    // idempotent
			eng.Run(10) // must not panic or hang
			var held []string
			p.AuditHeld(func(where string, pk *packet.Packet) {
				if pk == nil {
					t.Errorf("nil packet held as %s", where)
				}
				if len(held) == 0 || held[len(held)-1] != where {
					held = append(held, where)
				}
			})
			if fmt.Sprint(held) != fmt.Sprint(tc.held) {
				t.Errorf("held after Stop: %v, want %v", held, tc.held)
			}
		})
	}
}

// TestHandlerMustNotBlock: Barrier handlers and RecvOr predicates run in the
// engine's goroutine, where a blocking primitive could never be resumed; the
// misuse panics instead of deadlocking.
func TestHandlerMustNotBlock(t *testing.T) {
	n := &scriptNIC{arrivals: map[sim.Cycle]int{10: 1}}
	p := NewProc(0, n, CM5Costs(), func(p *Proc) {
		p.Barrier(NewBarrier(2), func(*packet.Packet) { p.Consume(1) })
	})
	p.Start()
	defer p.Stop()
	defer func() {
		if recover() == nil {
			t.Fatal("a blocking primitive inside a Barrier handler did not panic")
		}
	}()
	for now := sim.Cycle(0); now < 200; now++ {
		n.Tick(now)
		p.Tick(now)
	}
}

// gateNIC accepts a packet only in cycles that are multiples of period, and
// sleeps from one to the next, raising the room edge as it opens: a send
// offered to it stalls for what is left of the period. Nothing arrives.
type gateNIC struct {
	scriptNIC
	period sim.Cycle
	act    sim.Activity
}

func (g *gateNIC) Activity() *sim.Activity { return &g.act }

func (g *gateNIC) Tick(now sim.Cycle) {
	if g.proc != nil {
		g.proc.Wake()
	}
	g.act.Sleep(now + g.period)
}

func (g *gateNIC) TrySend(now sim.Cycle, p *packet.Packet) bool { return now%g.period == 0 }

// stalledSender returns an engine running one processor that sends forever
// into a gateNIC: every period cycles one Send completes, having stalled for
// all of them but T_send.
func stalledSender(tb testing.TB, period sim.Cycle) *sim.Engine {
	eng := sim.New()
	n := &gateNIC{period: period}
	eng.Register(n)
	pk := outPkt(100)
	p := NewProc(0, n, CM5Costs(), func(p *Proc) {
		for {
			p.Send(pk)
		}
	})
	eng.Register(p)
	p.Start()
	tb.Cleanup(p.Stop)
	eng.Run(10 * period)
	return eng
}

// sender is a step machine that sends pk forever.
type sender struct{ pk *packet.Packet }

func (m *sender) Step(p *Proc) bool {
	p.IssueSend(m.pk)
	return true
}

// sendingProc returns a hand-ticked processor sending forever into a NIC
// that always accepts — a closure, or a step machine handed over by Run: a
// Tick every T_send cycles completes one Send and runs the program into the
// next.
func sendingProc(tb testing.TB, machine bool) (*Proc, sim.Cycle) {
	pk := outPkt(100)
	prog := func(p *Proc) {
		for {
			p.Send(pk)
		}
	}
	if machine {
		prog = func(p *Proc) { p.Run(&sender{pk}) }
	}
	p := NewProc(0, &scriptNIC{}, CM5Costs(), prog)
	p.Start()
	tb.Cleanup(p.Stop)
	p.Tick(0)
	return p, CM5Costs().Send
}

// meeter is barrierPair's program as a step machine.
type meeter struct {
	b    *Barrier
	busy sim.Cycle
	free func(*packet.Packet)
	// draining is true from the Consume to the Barrier; recv while a Recv
	// is in progress.
	draining, recv bool
}

func (m *meeter) Step(p *Proc) bool {
	if m.free == nil {
		m.free = p.Free // bound once: a method value allocates
	}
	if m.recv {
		p.Free(p.Received())
	}
	if !m.draining {
		m.draining = true
		p.IssueConsume(m.busy)
		return true
	}
	if m.recv = p.HasPending(); m.recv {
		p.IssueRecv()
		return true
	}
	m.draining = false
	p.IssueBarrier(m.b, m.free)
	return true
}

// barrierPair returns an engine running two processors that meet at a
// barrier over and over, servicing (and retiring) an arrival every 97
// cycles while they wait: closures, or step machines handed over by Run.
func barrierPair(tb testing.TB, machine bool) *sim.Engine {
	eng := sim.New()
	b := NewBarrier(2)
	for i, busy := range []sim.Cycle{10, 250} {
		n := &scriptNIC{node: i, every: 97}
		eng.Register(n)
		prog := func(p *Proc) {
			free := p.Free // bound once: a method value allocates
			for {
				p.Consume(busy)
				for p.HasPending() {
					p.Free(p.Recv())
				}
				p.Barrier(b, free)
			}
		}
		if machine {
			prog = func(p *Proc) { p.Run(&meeter{b: b, busy: busy}) }
		}
		p := NewProc(i, n, CM5Costs(), prog)
		eng.Register(p)
		p.Start()
		tb.Cleanup(p.Stop)
	}
	eng.Run(5000) // warm the packet pools and the arrival queues
	return eng
}

// TestEngineSideAllocFree is the zero-allocation contract of the engine-side
// operations: a stalled Send, a completed Send (handoff included) and a
// barrier generation with serviced arrivals allocate nothing in steady state,
// whether the program is a closure or a step machine.
func TestEngineSideAllocFree(t *testing.T) {
	t.Run("stalled send", func(t *testing.T) {
		eng := stalledSender(t, 500)
		if a := testing.AllocsPerRun(1000, func() { eng.Run(500) }); a != 0 {
			t.Errorf("%v allocs per stalled Send", a)
		}
	})
	for _, machine := range []bool{false, true} {
		prefix := ""
		if machine {
			prefix = "machine "
		}
		t.Run(prefix+"send", func(t *testing.T) {
			p, now := sendingProc(t, machine)
			if a := testing.AllocsPerRun(1000, func() { p.Tick(now); now += CM5Costs().Send }); a != 0 {
				t.Errorf("%v allocs per Send", a)
			}
			if w := p.Work(); machine && w.Handoffs != 1 {
				t.Errorf("%d handoffs over %d primitives, want 1 (into Run)", w.Handoffs, w.Primitives)
			}
		})
		t.Run(prefix+"barrier", func(t *testing.T) {
			eng := barrierPair(t, machine)
			if a := testing.AllocsPerRun(20, func() { eng.Run(1000) }); a != 0 {
				t.Errorf("%v allocs per 1000 cycles of barrier generations", a)
			}
		})
	}
}

// BenchmarkProcStalledSend is the cost of one Send stalled behind NIC
// backpressure for K cycles, engine included: two TrySend calls, three Ticks
// (the NIC's and two of the processor's), three timers or wake edges and one
// goroutine handoff — whatever K is.
func BenchmarkProcStalledSend(b *testing.B) {
	for _, k := range []sim.Cycle{100, 10000} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			eng := stalledSender(b, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Run(k)
			}
		})
	}
}

// BenchmarkProcSend is the cost of one completed Send: the engine-side
// states plus, for a closure, the one goroutine handoff that returns to the
// program; a step machine's Step is a method call.
func BenchmarkProcSend(b *testing.B) {
	for _, form := range []string{"closure", "machine"} {
		b.Run(form, func(b *testing.B) {
			p, now := sendingProc(b, form == "machine")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Tick(now)
				now += CM5Costs().Send
			}
		})
	}
}
