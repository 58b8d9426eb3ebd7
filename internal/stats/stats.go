// Package stats collects and formats experiment measurements: the
// pending-packets-per-receiver time series behind the paper's Figure 5
// heatmap, scalar distributions, and aligned text tables for the harness's
// table/figure output.
package stats

import (
	"fmt"
	"strings"

	"nifdy/internal/nic"
	"nifdy/internal/packet"
	"nifdy/internal/sim"
)

// Pending tracks, per receiver, the number of data packets handed to some
// sender's NIC but not yet accepted by the receiving processor — the
// paper's "pending packets per receiver" congestion signal (Figure 5).
//
// Counts accumulate per engine shard (each NIC's hooks write only its own
// shard's row, so hook calls from concurrently ticking shards never race)
// and are summed at read points. Register it as a Ticker — or, for
// multi-shard engines, install Sample as a step hook — to record periodic
// snapshots; both observe the engine's quiescent between-cycles state, so
// snapshots are identical for any shard count.
type Pending struct {
	counts   [][]int // [shard][receiver]
	nodes    int
	interval sim.Cycle
	samples  [][]int
	times    []sim.Cycle
	act      sim.Activity

	// deltas, when enabled, mirror the hook updates as per-window deltas
	// ([shard][receiver], same race-free row discipline as counts) for the
	// distributed runner: each worker's hooks see only its own nodes'
	// sends/accepts, so workers exchange TakeDeltas batches per window and
	// fold peer activity in with ApplyRemote — after which every worker's
	// summed counts equal the global ones, making Sample/Max/Heatmap output
	// identical in every process.
	deltas [][]int
}

// NewPending returns a tracker for nodes receivers sampling every interval
// cycles (interval <= 0 disables sampling; counts still work).
func NewPending(nodes int, interval sim.Cycle) *Pending {
	p := &Pending{nodes: nodes, interval: interval}
	p.SetShards(1)
	return p
}

// SetShards sizes the per-shard accumulators. Call before handing out hooks
// (existing counts are discarded).
func (p *Pending) SetShards(shards int) {
	if shards < 1 {
		shards = 1
	}
	p.counts = make([][]int, shards)
	for i := range p.counts {
		p.counts[i] = make([]int, p.nodes)
	}
	if p.deltas != nil {
		p.EnableDeltas()
	}
}

// EnableDeltas turns on per-window delta tracking for cross-process merging
// (see the deltas field). Call after SetShards and before handing out hooks.
func (p *Pending) EnableDeltas() {
	p.deltas = make([][]int, len(p.counts))
	for i := range p.deltas {
		p.deltas[i] = make([]int, p.nodes)
	}
}

// TakeDeltas reports each receiver's pending-count change since the last
// call, visiting only nonzero entries, and resets the accumulators. Called
// at window boundaries, when no shard is ticking.
func (p *Pending) TakeDeltas(f func(node, delta int)) {
	for n := 0; n < p.nodes; n++ {
		d := 0
		for si := range p.deltas {
			d += p.deltas[si][n]
			p.deltas[si][n] = 0
		}
		if d != 0 {
			f(n, d)
		}
	}
}

// ApplyRemote folds a peer worker's delta for one receiver into the counts
// (row 0; safe because the call happens at window boundaries, when no shard
// — and so no hook — is running).
func (p *Pending) ApplyRemote(node, delta int) { p.counts[0][node] += delta }

// Hooks returns NIC hooks accumulating into shard 0 — the single-shard
// form of HooksFor.
func (p *Pending) Hooks() nic.Hooks { return p.HooksFor(0) }

// HooksFor returns NIC hooks that maintain the counts in shard sh's
// accumulator. Pass them to every NIC registered in that shard.
func (p *Pending) HooksFor(sh int) nic.Hooks {
	counts := p.counts[sh]
	if p.deltas == nil {
		return nic.Hooks{
			OnSend:   func(pkt *packet.Packet) { counts[pkt.Dst]++ },
			OnAccept: func(pkt *packet.Packet) { counts[pkt.Dst]-- },
		}
	}
	deltas := p.deltas[sh]
	return nic.Hooks{
		OnSend:   func(pkt *packet.Packet) { counts[pkt.Dst]++; deltas[pkt.Dst]++ },
		OnAccept: func(pkt *packet.Packet) { counts[pkt.Dst]--; deltas[pkt.Dst]-- },
	}
}

// Count reports the current pending count for receiver n, summed over
// shards. Only call while the engine is between cycles.
func (p *Pending) Count(n int) int {
	c := 0
	for _, row := range p.counts {
		c += row[n]
	}
	return c
}

// Max reports the largest current pending count. Only call while the engine
// is between cycles.
func (p *Pending) Max() int {
	m := 0
	for n := 0; n < p.nodes; n++ {
		if c := p.Count(n); c > m {
			m = c
		}
	}
	return m
}

// Activity implements sim.IdleTicker: the sampler sleeps between interval
// boundaries (the hooks maintain counts without ticks).
func (p *Pending) Activity() *sim.Activity { return &p.act }

// Tick implements sim.Ticker: snapshot at every interval boundary.
func (p *Pending) Tick(now sim.Cycle) {
	if p.interval <= 0 {
		p.act.Sleep(sim.Never)
		return
	}
	if now%p.interval != 0 {
		p.act.Sleep(now - now%p.interval + p.interval)
		return
	}
	p.snapshot(now)
	p.act.Sleep(now + p.interval)
}

// Sample records a snapshot when now is an interval boundary. Install it
// with Engine.RegisterStepHookClocked(p.Sample, p.Clock()) on multi-shard
// engines: it then runs on the stepping goroutine before any shard ticks,
// summing the per-shard rows at the same pre-tick instant the
// registered-Ticker form samples at. It keeps the clock pointed at the next
// boundary so the engine may fast-forward quiescent spans between samples.
func (p *Pending) Sample(now sim.Cycle) {
	if p.interval <= 0 {
		p.act.Sleep(sim.Never)
		return
	}
	if now%p.interval != 0 {
		p.act.Sleep(now - now%p.interval + p.interval)
		return
	}
	p.snapshot(now)
	p.act.Sleep(now + p.interval)
}

// Clock is the sampler's next-boundary activity, for
// Engine.RegisterStepHookClocked.
func (p *Pending) Clock() *sim.Activity { return &p.act }

//lint:allow(hotalloc) interval sampling off the saturated path: one snapshot per Interval cycles, by design
func (p *Pending) snapshot(now sim.Cycle) {
	snap := make([]int, p.nodes)
	for n := range snap {
		snap[n] = p.Count(n)
	}
	p.samples = append(p.samples, snap)
	p.times = append(p.times, now)
}

// Samples returns the recorded snapshots and their cycle stamps.
func (p *Pending) Samples() ([][]int, []sim.Cycle) { return p.samples, p.times }

// Heatmap renders the samples as ASCII art, one row per receiver, one
// column per sample; darker glyphs mean more pending packets (the paper
// shades from white at 0 to black at >= 20). Long runs are downsampled to
// at most 120 columns, keeping each column's maximum so bursts stay
// visible.
func (p *Pending) Heatmap() string {
	if len(p.samples) == 0 {
		return "(no samples)\n"
	}
	const maxCols = 120
	stride := (len(p.samples) + maxCols - 1) / maxCols
	shades := []byte(" .:-=+*#%@")
	// Shade against the observed peak (at least the paper's 20-packet
	// black point / 4, so quiet runs are not artificially darkened).
	peak := 5
	for _, s := range p.samples {
		for _, v := range s {
			if v > peak {
				peak = v
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "(shade scale: ' '=0 .. '@'=%d pending packets)\n", peak)
	for n := 0; n < p.nodes; n++ {
		fmt.Fprintf(&b, "%3d |", n)
		for c := 0; c < len(p.samples); c += stride {
			v := 0
			for k := c; k < c+stride && k < len(p.samples); k++ {
				if p.samples[k][n] > v {
					v = p.samples[k][n]
				}
			}
			idx := v * (len(shades) - 1) / peak
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			b.WriteByte(shades[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Dist accumulates a scalar distribution.
type Dist struct {
	n        int64
	sum      float64
	min, max float64
}

// Add records v.
func (d *Dist) Add(v float64) {
	if d.n == 0 || v < d.min {
		d.min = v
	}
	if d.n == 0 || v > d.max {
		d.max = v
	}
	d.n++
	d.sum += v
}

// N reports the sample count.
func (d *Dist) N() int64 { return d.n }

// Mean reports the sample mean (0 when empty).
func (d *Dist) Mean() float64 {
	if d.n == 0 {
		return 0
	}
	return d.sum / float64(d.n)
}

// Min and Max report the extremes (0 when empty).
func (d *Dist) Min() float64 { return d.min }

// Max reports the largest sample.
func (d *Dist) Max() float64 { return d.max }

func (d *Dist) String() string {
	return fmt.Sprintf("n=%d mean=%.1f min=%.0f max=%.0f", d.n, d.Mean(), d.min, d.max)
}

// Table is an aligned text table for harness output.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Row appends a row; cells are formatted with %v except floats, which use
// one decimal place.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case float32:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows reports the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}
