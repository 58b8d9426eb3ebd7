package harness

import (
	"nifdy/internal/model"
	"nifdy/internal/node"
	"nifdy/internal/packet"
	"nifdy/internal/sim"
	"nifdy/internal/stats"
)

// ModelCheckOpts parameterizes the §2.4 model-vs-simulator calibration.
type ModelCheckOpts struct {
	Seed      uint64
	MaxCycles sim.Cycle // default 2,000,000
}

func (o *ModelCheckOpts) defaults() {
	if o.Seed == 0 {
		o.Seed = 1995
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 2_000_000
	}
}

// ModelCheck measures, on the idle 8x8 mesh and full fat tree, the one-way
// packet latency and the steady-state inter-injection gap of the scalar
// protocol at several distances, alongside the §2.4 analytical predictions
// (TLat(d) = 4d+14 / 5d+2 and T_roundtrip = 2 TLat + T_ackproc). The paper's
// formulas describe *its* simulator; ours differs in constants but must
// match in shape: latency linear in d, gap tracking the round trip.
func ModelCheck(o ModelCheckOpts) *stats.Table {
	o.defaults()
	t := stats.NewTable("§2.4 model vs simulator: scalar round trip on idle fabrics",
		"network", "d", "one-way (sim)", "TLat model", "send gap (sim)", "RT model")
	// One row per distance d: dst is the node d hops from node 0.
	type row struct {
		d, dst      int
		oneWay, gap sim.Cycle
	}
	probes := []struct {
		spec NetSpec
		lat  func(int) sim.Cycle
		rows []row
	}{
		{Mesh2D(), model.MeshLat, []row{{d: 1, dst: 1}, {d: 4, dst: 4}, {d: 7, dst: 7}, {d: 14, dst: 63}}},
		{FullFatTree(), model.FatTreeLat, []row{{d: 2, dst: 1}, {d: 4, dst: 4}, {d: 6, dst: 16}}},
	}
	var cells []cell
	for _, pr := range probes {
		for i := range pr.rows {
			r := &pr.rows[i]
			cells = append(cells, pairCell(pr.spec, r.dst, o, &r.oneWay, &r.gap))
		}
	}
	runCells(cells)
	for _, pr := range probes {
		params := model.CM5Params(pr.lat, 8)
		for _, r := range pr.rows {
			t.Row(pr.spec.Name, r.d, r.oneWay, pr.lat(r.d), r.gap, params.RoundTrip(r.d))
		}
	}
	return t
}

// pairCell sends a short scalar stream from node 0 to dst on an idle
// fabric and reports the first packet's in-fabric latency and the
// steady-state injection gap (which the one-outstanding protocol pins to
// the round trip whenever the round trip exceeds the software overheads).
func pairCell(spec NetSpec, dst int, o ModelCheckOpts, oneWay, gap *sim.Cycle) cell {
	const n = 6
	pkts := make([]*packet.Packet, n)
	return cell{
		opts: BuildOpts{Net: spec, Kind: NIFDY, Seed: o.Seed,
			Program: func(nd int) node.Program {
				switch nd {
				case 0:
					return func(p *node.Proc) {
						for i := 0; i < n; i++ {
							pk := &packet.Packet{ID: uint64(i + 1), Src: 0, Dst: dst,
								Words: 8, Class: packet.Request, Dialog: packet.NoDialog}
							pkts[i] = pk
							p.Send(pk)
						}
					}
				case dst:
					return func(p *node.Proc) {
						for i := 0; i < n; i++ {
							p.Recv()
						}
					}
				default:
					return nil
				}
			}},
		budget: o.MaxCycles, untilDone: true,
		read: func(*Sim) {
			*oneWay = pkts[0].DeliveredAt - pkts[0].InjectedAt
			// Steady-state gap: average of the last few inter-injection
			// intervals.
			var total sim.Cycle
			cnt := 0
			for i := 3; i < n; i++ {
				if pkts[i] != nil && pkts[i-1] != nil && pkts[i].InjectedAt > 0 {
					total += pkts[i].InjectedAt - pkts[i-1].InjectedAt
					cnt++
				}
			}
			if cnt > 0 {
				*gap = total / sim.Cycle(cnt)
			}
		},
	}
}
