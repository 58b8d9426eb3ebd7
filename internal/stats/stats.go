// Package stats collects and formats experiment measurements: the
// pending-packets-per-receiver time series behind the paper's Figure 5
// heatmap, and aligned text tables for the harness's table/figure output.
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
// and are summed at read points. Install Sample as a clocked step hook to
// record periodic snapshots: it observes the engine's quiescent
// between-cycles state, so snapshots are identical for any shard count.
type Pending struct {
	counts   [][]int // [shard][receiver]
	nodes    int
	interval sim.Cycle
	samples  [][]int
	times    []sim.Cycle
	act      sim.Activity
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
}

// HooksFor returns NIC hooks that maintain the counts in shard sh's
// accumulator. Pass them to every NIC registered in that shard.
func (p *Pending) HooksFor(sh int) nic.Hooks {
	counts := p.counts[sh]
	return nic.Hooks{
		OnSend:   func(pkt *packet.Packet) { counts[pkt.Dst]++ },
		OnAccept: func(pkt *packet.Packet) { counts[pkt.Dst]-- },
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

// Sample records a snapshot when now is an interval boundary. Install it
// with Engine.RegisterStepHookClocked(p.Sample, p.Clock()): it then runs on
// the stepping goroutine before any shard ticks, summing the per-shard rows
// at a pre-tick instant. It keeps the clock pointed at the next boundary
// (the hooks maintain counts without it) so the engine may fast-forward
// quiescent spans between samples.
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
