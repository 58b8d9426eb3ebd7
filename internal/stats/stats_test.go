package stats

import (
	"strings"
	"testing"

	"nifdy/internal/packet"
)

func TestPendingCounts(t *testing.T) {
	p := NewPending(4, 0)
	h := p.Hooks()
	pk := &packet.Packet{Src: 0, Dst: 2}
	h.Send(pk)
	h.Send(pk)
	if p.Count(2) != 2 || p.Max() != 2 {
		t.Fatalf("count %d max %d", p.Count(2), p.Max())
	}
	h.Accept(pk)
	if p.Count(2) != 1 {
		t.Fatalf("count %d after accept", p.Count(2))
	}
}

func TestPendingSampling(t *testing.T) {
	p := NewPending(2, 10)
	h := p.Hooks()
	for now := int64(0); now < 35; now++ {
		if now == 5 {
			h.Send(&packet.Packet{Dst: 1})
		}
		p.Tick(now)
	}
	samples, times := p.Samples()
	if len(samples) != 4 || len(times) != 4 {
		t.Fatalf("%d samples at %v", len(samples), times)
	}
	if samples[0][1] != 0 || samples[1][1] != 1 {
		t.Fatalf("samples: %v", samples)
	}
}

func TestHeatmapShades(t *testing.T) {
	p := NewPending(1, 1)
	h := p.Hooks()
	p.Tick(0)
	for i := 0; i < 25; i++ {
		h.Send(&packet.Packet{Dst: 0})
	}
	p.Tick(1)
	hm := p.Heatmap()
	if !strings.Contains(hm, " ") || !strings.Contains(hm, "@") {
		t.Fatalf("heatmap lacks dynamic range:\n%s", hm)
	}
}

func TestHeatmapEmpty(t *testing.T) {
	p := NewPending(1, 0)
	if !strings.Contains(p.Heatmap(), "no samples") {
		t.Fatal("empty heatmap")
	}
}

func TestDist(t *testing.T) {
	var d Dist
	if d.Mean() != 0 {
		t.Fatal("empty mean")
	}
	for _, v := range []float64{1, 2, 3, 4} {
		d.Add(v)
	}
	if d.N() != 4 || d.Mean() != 2.5 || d.Min() != 1 || d.Max() != 4 {
		t.Fatalf("dist %v", d.String())
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.Row("longish-name", 42)
	tb.Row("x", 3.14159)
	s := tb.String()
	if !strings.Contains(s, "== demo ==") {
		t.Fatal("missing title")
	}
	if !strings.Contains(s, "longish-name") || !strings.Contains(s, "3.14") {
		t.Fatalf("table:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("%d lines:\n%s", len(lines), s)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
}

func TestGroupedBars(t *testing.T) {
	g := NewGroupedBars("fig", "pkts", "none", "NIFDY")
	g.Group("mesh", 50, 100)
	g.Group("tree", 80, 90)
	out := g.String()
	for _, want := range []string{"== fig ==", "mesh", "tree", "none", "NIFDY"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	// Global scaling: the 100 bar must be the longest.
	lines := strings.Split(out, "\n")
	longest, li := 0, -1
	for i, l := range lines {
		if c := strings.Count(l, "█"); c > longest {
			longest, li = c, i
		}
	}
	if li < 0 || !strings.Contains(lines[li], "100") {
		t.Fatalf("longest bar not the max value:\n%s", out)
	}
}

func TestGroupedBarsPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on series mismatch")
		}
	}()
	NewGroupedBars("x", "", "a", "b").Group("g", 1)
}

func TestTableChart(t *testing.T) {
	tb := NewTable("fig", "net", "none", "NIFDY")
	tb.Row("mesh", 100, 150)
	tb.Row("tree", 200, 210)
	out := tb.Chart("pkts", 0, 1, 2).String()
	for _, want := range []string{"mesh", "tree", "none", "NIFDY", "210"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestParseFloat(t *testing.T) {
	cases := map[string]float64{
		"42": 42, "3.5": 3.5, "-2": -2, "0.25": 0.25, "abc": 0, "": 0,
	}
	for s, want := range cases {
		if got := parseFloat(s); got != want {
			t.Errorf("parseFloat(%q) = %v, want %v", s, got, want)
		}
	}
}
