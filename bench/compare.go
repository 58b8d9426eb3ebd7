package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json this program reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// exactMetrics are simulated statistics: two sets of one seed and one commit,
// or of two commits that differ only in the simulator's speed, must agree on
// them to the last digit.
var exactMetrics = map[string]bool{
	"sim_pkts_per_mcycle":        true,
	"router.buffered_flits_mean": true,
	"core.ticks_per_cycle":       true,
	"node.ticks_per_cycle":       true,
	"core.bulk_grant_ratio":      true,
	"core.acks_per_pkt":          true,
	"flow.delivered_err_pct":     true,
}

func isExact(name string) bool {
	return exactMetrics[name] || strings.HasPrefix(name, "nic.")
}

// set is every workload's results from -all: each metric's value in each run.
type set struct {
	Host      host                  `json:"host"`
	Seed      uint64                `json:"seed"`
	Seconds   float64               `json:"seconds"`
	Workloads map[string]*setOfRuns `json:"workloads"`
}

type setOfRuns struct {
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Skipped   string               `json:"skipped,omitempty"`
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string][]float64 `json:"per_layer"`
}

// runAll runs every workload of the spec runs times untraced and runs times
// traced, one child process per run, and writes the set to out.
func runAll(specPath, out string, seed uint64, seconds float64, runs int) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	s := set{Host: fingerprint(), Seed: seed, Seconds: seconds, Workloads: map[string]*setOfRuns{}}
	for _, w := range spec.Workloads {
		e := &setOfRuns{EndToEnd: map[string][]float64{}, PerLayer: map[string][]float64{}}
		s.Workloads[w.Name] = e
		for i := 0; i < 2*runs; i++ {
			traced := i%2 == 1
			into := e.EndToEnd
			if traced {
				into = e.PerLayer
			}
			cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(i%2))
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if ee, ok := err.(*exec.ExitError); ok && ee.ExitCode() == 3 {
				e.Skipped = "1cpu"
				break
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var res result
			if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
				return fmt.Errorf("%s: no result (%v, %v)", w.Name, err, jerr)
			}
			e.Attempted += res.Attempted
			e.Failed += res.Failed
			for name, m := range res.Metrics {
				into[name] = append(into[name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "bench: %s traced=%v run %d: %d failed of %d\n", w.Name, traced, i/2, res.Failed, res.Attempted)
		}
	}
	return writeJSON(out, s)
}

func readSet(path string) (*set, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s set
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles Python's statistics.quantiles(v, n=4) gives.
func spread(v []float64) float64 {
	if len(v) < 2 || median(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 { // the exclusive method, as Python writes it
		j := k * (len(s) + 1) / 4
		delta := k*(len(s)+1) - 4*j
		j = max(1, min(j, len(s)-1))
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (q(3) - q(1)) / median(s)
}

// worse is how much worse b is than a, as a share of a, in the direction the
// metric counts as worse; negative when b is better.
func worse(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSets prints, for every workload and end-to-end metric, both sets'
// medians, how much worse the second is, the bound, and a verdict: pass,
// FAIL when the second is worse by more than the bound, unresolved when
// either set's own spread is wider than the bound. Between sets of one seed
// every simulated statistic, end-to-end or per-layer, must be identical. It
// reports whether nothing failed.
func compareSets(w io.Writer, specPath, pathA, pathB string) (bool, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	sameSeed := a.Seed == b.Seed
	ok := true
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tworse by\tbound\tverdict")
	for _, wl := range spec.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil {
			fmt.Fprintf(tw, "%s\t\t\t\t\t\tFAIL: missing from a set\n", wl.Name)
			ok = false
			continue
		}
		if ra.Skipped != "" || rb.Skipped != "" {
			fmt.Fprintf(tw, "%s\t\t\t\t\t\tskipped: %s%s\n", wl.Name, ra.Skipped, rb.Skipped)
			continue
		}
		if ra.Failed+rb.Failed > 0 {
			fmt.Fprintf(tw, "%s\toperations\t%d of %d failed\t%d of %d failed\t\t\tFAIL\n",
				wl.Name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			ok = false
		}
		for _, m := range spec.EndToEnd {
			va, vb := ra.EndToEnd[m.Name], rb.EndToEnd[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\tFAIL: missing from a set\n", wl.Name, m.Name)
				ok = false
				continue
			}
			bound := m.Bound
			if sameSeed && isExact(m.Name) {
				bound = 0
			}
			ma, mb := median(va), median(vb)
			by := worse(ma, mb, m.Better)
			verdict := "pass"
			switch {
			case bound == 0:
				if ma != mb || spread(va) != 0 || spread(vb) != 0 {
					verdict = "FAIL"
				}
			case spread(va) > bound || spread(vb) > bound:
				verdict = "unresolved"
			case by > bound:
				verdict = "FAIL"
			}
			ok = ok && verdict != "FAIL"
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%+.2f%%\t%.0f%%\t%s\n",
				wl.Name, m.Name, ma, m.Unit, mb, m.Unit, 100*by, 100*bound, verdict)
		}
		if !sameSeed {
			continue
		}
		for _, m := range spec.PerLayer {
			if !isExact(m.Name) {
				continue
			}
			va, vb := ra.PerLayer[m.Name], rb.PerLayer[m.Name]
			if len(va) == 0 || len(vb) == 0 || median(va) != median(vb) || spread(va) != 0 || spread(vb) != 0 {
				fmt.Fprintf(tw, "%s\t%s\t%v\t%v\t\t0%%\tFAIL: simulated statistic differs\n", wl.Name, m.Name, va, vb)
				ok = false
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	return ok, nil
}
