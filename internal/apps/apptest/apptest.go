// Package apptest runs an application's per-node programs on a small serial
// cell and signs the run, so two builds of one program — a step machine and
// the closure it replaced — can be held to the same simulation.
package apptest

import (
	"fmt"
	"strings"
	"testing"

	"nifdy/internal/core"
	"nifdy/internal/nic"
	"nifdy/internal/node"
	"nifdy/internal/packet"
	"nifdy/internal/sim"
	"nifdy/internal/topo/fattree"
)

// Nodes is the cell's size: a two-level fat tree.
const Nodes = 16

// Trace runs program(n) on every node of the cell — NIFDY units, or plain
// NICs with two-packet buffers when useNIFDY is false, at CM-5 costs — until
// every program has ended or max cycles have passed. The signature it
// returns has one line per chunk cycles: the NICs' summed counters, the
// packets in the fabric and the processors finished.
func Trace(tb testing.TB, program func(n int) node.Program, useNIFDY bool, max, chunk sim.Cycle) string {
	tb.Helper()
	tree := fattree.New(fattree.Config{Levels: 2, Seed: 7})
	eng := sim.New()
	tree.RegisterRoutersSharded(eng, tree.Partition(1))
	nics := make([]nic.NIC, Nodes)
	var procs []*node.Proc
	for n := range nics {
		if useNIFDY {
			nics[n] = core.New(core.Config{Node: n, IDs: packet.NewNodeIDs(n)}, tree.Iface(n))
		} else {
			nics[n] = nic.NewBasic(nic.BasicConfig{Node: n, OutBuf: 2, ArrBuf: 2}, tree.Iface(n))
		}
		eng.Register(nics[n])
		if prog := program(n); prog != nil {
			p := node.NewProc(n, nics[n], node.CM5Costs(), prog)
			eng.Register(p)
			p.Start()
			procs = append(procs, p)
		}
	}
	defer func() {
		for _, p := range procs {
			p.Stop()
		}
	}()
	var b strings.Builder
	for finished := 0; finished < len(procs) && eng.Now() < max; {
		eng.Run(chunk)
		var st nic.Stats
		for _, nc := range nics {
			st.Add(nc.Stats())
		}
		finished = 0
		for _, p := range procs {
			if p.Done() {
				finished++
			}
		}
		fmt.Fprintf(&b, "@%d %+v net=%d finished=%d\n", eng.Now(), st, tree.BufferedFlits(), finished)
	}
	return b.String()
}
