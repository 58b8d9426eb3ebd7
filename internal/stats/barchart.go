package stats

import (
	"fmt"
	"strings"
)

// GroupedBars renders one chart section per group (e.g. per network), each
// with the same series labels — mirroring the paper's grouped bar figures.
type GroupedBars struct {
	Title  string
	Unit   string
	Series []string
	groups []group
}

type group struct {
	name   string
	values []float64
}

// NewGroupedBars returns a chart whose groups each carry len(series) values.
func NewGroupedBars(title, unit string, series ...string) *GroupedBars {
	return &GroupedBars{Title: title, Unit: unit, Series: series}
}

// Group appends a group; values must match the series count.
func (g *GroupedBars) Group(name string, values ...float64) {
	if len(values) != len(g.Series) {
		panic("stats: group value count does not match series")
	}
	g.groups = append(g.groups, group{name, values})
}

// String renders all groups scaled to the global maximum so bars are
// comparable across groups.
func (g *GroupedBars) String() string {
	var b strings.Builder
	if g.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", g.Title)
	}
	maxVal := 0.0
	labelW := 0
	for _, s := range g.Series {
		if len(s) > labelW {
			labelW = len(s)
		}
	}
	for _, gr := range g.groups {
		for _, v := range gr.values {
			if v > maxVal {
				maxVal = v
			}
		}
	}
	const width = 46
	for _, gr := range g.groups {
		fmt.Fprintf(&b, "%s\n", gr.name)
		for i, s := range g.Series {
			n := 0
			if maxVal > 0 {
				n = int(gr.values[i]/maxVal*width + 0.5)
			}
			fmt.Fprintf(&b, "  %-*s |%s %.4g %s\n", labelW, s, strings.Repeat("█", n), gr.values[i], g.Unit)
		}
	}
	return b.String()
}

// Chart converts table rows into grouped bars: labelCol supplies the group
// names and valueCols the series (header names are reused as series
// labels). Cells that do not parse as numbers become zero-length bars.
func (t *Table) Chart(unit string, labelCol int, valueCols ...int) *GroupedBars {
	series := make([]string, len(valueCols))
	for i, c := range valueCols {
		series[i] = t.Headers[c]
	}
	g := NewGroupedBars(t.Title, unit, series...)
	for _, row := range t.rows {
		vals := make([]float64, len(valueCols))
		for i, c := range valueCols {
			if c < len(row) {
				vals[i] = parseFloat(row[c])
			}
		}
		g.Group(row[labelCol], vals...)
	}
	return g
}

// parseFloat is a dependency-free float parser for table cells (decimal
// with optional sign and fraction; anything else yields 0).
func parseFloat(s string) float64 {
	v := 0.0
	i, neg := 0, false
	if i < len(s) && (s[i] == '-' || s[i] == '+') {
		neg = s[i] == '-'
		i++
	}
	seen := false
	for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
		v = v*10 + float64(s[i]-'0')
		seen = true
	}
	if i < len(s) && s[i] == '.' {
		i++
		scale := 0.1
		for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
			v += float64(s[i]-'0') * scale
			scale /= 10
			seen = true
		}
	}
	if !seen || i != len(s) {
		if !seen {
			return 0
		}
	}
	if neg {
		return -v
	}
	return v
}
