package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"nifdy/internal/sim"
)

// stride is how often a wrapped Tick is timed: on cycles divisible by it.
// It is prime so that the sample does not lock onto the even software costs
// (40, 60 and 22 cycles) that pace the processors; timed totals scale by it.
// At 13 the two clock reads per timed Tick cost flit_heavy 2% on top of the
// 3% the wrappers' extra indirection costs; at 41 they cost under 1%, and a
// 10 s run still times some 10^5 Ticks of each layer.
const stride = 41

// layerAcc accumulates one layer's ticks: every call counted, every
// stride-th cycle's calls timed.
type layerAcc struct {
	ticks int64
	ns    int64
}

// since is the layer's growth since an earlier reading.
func (a layerAcc) since(b layerAcc) layerAcc { return layerAcc{a.ticks - b.ticks, a.ns - b.ns} }

// scaled is the layer's estimated wall time.
func (a layerAcc) scaled() time.Duration { return time.Duration(a.ns * stride) }

// span is one traced interval. Child spans carry their parent's id; a span's
// self time is its duration minus its children's.
type span struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent,omitempty"`
	Name    string           `json:"name"`
	StartNS int64            `json:"start_ns"`
	DurNS   int64            `json:"dur_ns"`
	SelfNS  int64            `json:"self_ns,omitempty"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// tracer holds the layer accumulators the wrappers write to and the spans of
// one run, kept in memory until the run ends.
type tracer struct {
	core, node layerAcc
	epoch      time.Time
	spans      []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// timed forwards to the NIC or processor it wraps. The engine sees the same
// Activity, and the same Binder call, as it would without the wrapper.
type timed struct {
	inner sim.IdleTicker
	acc   *layerAcc
}

func (t *timed) Tick(now sim.Cycle) {
	t.acc.ticks++
	if now%stride != 0 {
		t.inner.Tick(now)
		return
	}
	t0 := time.Now()
	t.inner.Tick(now)
	t.acc.ns += int64(time.Since(t0))
}

func (t *timed) Activity() *sim.Activity { return t.inner.Activity() }

func (t *timed) BindEngine(e *sim.Engine, sh int) {
	if b, ok := t.inner.(sim.Binder); ok {
		b.BindEngine(e, sh)
	}
}

// add records a span that started at start and lasted dur, and returns its id.
func (tr *tracer) add(parent int, name string, start time.Time, dur time.Duration, counts map[string]int64) int {
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{
		ID: id, Parent: parent, Name: name,
		StartNS: int64(start.Sub(tr.epoch)), DurNS: int64(dur), Counts: counts,
	})
	return id
}

// chunk records one stepped chunk as a run.chunk span whose children are the
// time the wrapped layers took inside it, given as the accumulators' growth
// over the chunk. What is left is the chunk's self time: routers, links,
// interfaces and the engine, none of which can be wrapped from outside.
func (tr *tracer) chunk(start time.Time, dur time.Duration, core, node layerAcc, counts map[string]int64) {
	id := tr.add(0, "run.chunk", start, dur, counts)
	self := dur
	for _, c := range []struct {
		name string
		acc  layerAcc
	}{{"core.tick", core}, {"node.tick", node}} {
		if c.acc.ticks == 0 {
			continue
		}
		tr.add(id, c.name, start, c.acc.scaled(), map[string]int64{"ticks": c.acc.ticks})
		self -= c.acc.scaled()
	}
	tr.spans[id-1].SelfNS = int64(self)
}

// write stores the spans as JSON lines in dir/<workload>.trace.jsonl.
func (tr *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".trace.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range tr.spans {
		if err := enc.Encode(&tr.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
