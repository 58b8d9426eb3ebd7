package harness

import (
	"testing"

	"nifdy/internal/core"
	"nifdy/internal/nic"
	"nifdy/internal/packet"
	"nifdy/internal/sim"
	"nifdy/internal/topo"
)

// TestNICContract holds every NIC kind to the nic.NIC contract the processor
// model and the monitors rely on, on the flit mesh and on its flow twin: two
// sources each hand one packet to the same destination, which pulls both
// once they are ready. TrySend stamps CreatedAt, counts Sent and fires OnSend
// exactly once; Recv stamps AcceptedAt, counts Accepted and fires OnAccept
// exactly once; Pending counts the packets ready; Idle is false while a
// packet is queued, serializing or unpulled, and every NIC is Idle once the
// exchange (acks included) has drained.
func TestNICContract(t *testing.T) {
	spec := Mesh2D()
	kinds := []struct {
		name string
		mk   func(n int, h nic.Hooks, net topo.Network) nic.NIC
	}{
		{"plain", func(n int, h nic.Hooks, net topo.Network) nic.NIC {
			return nic.NewBasic(nic.BasicConfig{Node: n, OutBuf: 1, ArrBuf: 2, Hooks: h}, net.Iface(n))
		}},
		{"buffers-only", func(n int, h nic.Hooks, net topo.Network) nic.NIC {
			total := spec.Params.TotalBuffers()
			arr := (total + 1) / 2
			return nic.NewBasic(nic.BasicConfig{Node: n, OutBuf: total - arr, ArrBuf: arr, Hooks: h}, net.Iface(n))
		}},
		{"dcqcn", func(n int, h nic.Hooks, net topo.Network) nic.NIC {
			return nic.NewDCQCN(nic.DCQCNConfig{Node: n, OutBuf: 1, ArrBuf: 2, CPF: 1, Hooks: h}, net.Iface(n))
		}},
		{"nifdy", func(n int, h nic.Hooks, net topo.Network) nic.NIC {
			cfg := spec.Params
			cfg.Node, cfg.IDs, cfg.Hooks = n, packet.NewNodeIDs(n), h
			return core.New(cfg, net.Iface(n))
		}},
	}
	for _, fab := range []NetSpec{spec, FlowTwin(spec)} {
		for _, k := range kinds {
			t.Run(fab.Name+"/"+k.name, func(t *testing.T) {
				net := fab.Build(1, topo.IfaceOptions{Seed: 1})
				eng := sim.New()
				net.RegisterRoutersSharded(eng, net.Partition(1))
				nodes := net.Nodes()
				sends, accepts := make([]int, nodes), make([]int, nodes)
				nics := make([]nic.NIC, nodes)
				for n := range nics {
					nics[n] = k.mk(n, nic.Hooks{
						OnSend:   func(*packet.Packet) { sends[n]++ },
						OnAccept: func(*packet.Packet) { accepts[n]++ },
					}, net)
					eng.Register(nics[n])
				}
				srcs, dst := []int{0, 1}, nodes-1
				eng.Run(10) // nonzero stamps are distinguishable from unset ones
				sent := make([]*packet.Packet, len(srcs))
				for i, s := range srcs {
					p := &packet.Packet{ID: uint64(i + 1), Src: s, Dst: dst, Words: 8,
						Class: packet.Request, Dialog: packet.NoDialog}
					if !nics[s].TrySend(eng.Now(), p) {
						t.Fatalf("node %d refused a send into an empty NIC", s)
					}
					if p.CreatedAt != eng.Now() {
						t.Fatalf("CreatedAt = %d, want %d", p.CreatedAt, eng.Now())
					}
					if got := nics[s].Stats().Sent; got != 1 || sends[s] != 1 {
						t.Fatalf("node %d after TrySend: Sent = %d, OnSend fired %d times; want 1, 1", s, got, sends[s])
					}
					if nics[s].Idle() {
						t.Fatalf("node %d Idle with a packet queued", s)
					}
					sent[i] = p
				}
				eng.Step()
				for _, s := range srcs {
					if nics[s].Idle() {
						t.Fatalf("node %d Idle with its packet serializing", s)
					}
				}
				for nics[dst].Pending() < len(srcs) {
					if p := nics[dst].Pending(); p > 0 && nics[dst].Idle() {
						t.Fatalf("destination Idle with %d packets unpulled", p)
					}
					if eng.Now() > 100000 {
						t.Fatalf("only %d of %d packets ready by cycle %d", nics[dst].Pending(), len(srcs), eng.Now())
					}
					eng.Step()
				}
				if nics[dst].Stats().Accepted != 0 || accepts[dst] != 0 {
					t.Fatal("acceptance counted before Recv")
				}
				for want := len(srcs) - 1; want >= 0; want-- {
					if nics[dst].Idle() {
						t.Fatalf("destination Idle with %d packets unpulled", want+1)
					}
					now := eng.Now()
					p, ok := nics[dst].Recv(now)
					if !ok {
						t.Fatal("Recv found nothing with packets pending")
					}
					if p.AcceptedAt != now {
						t.Fatalf("AcceptedAt = %d, want %d", p.AcceptedAt, now)
					}
					if got := nics[dst].Pending(); got != want {
						t.Fatalf("Pending = %d after a Recv, want %d", got, want)
					}
					if got := int(nics[dst].Stats().Accepted); got != len(srcs)-want || accepts[dst] != got {
						t.Fatalf("Accepted = %d, OnAccept fired %d times; want %d", got, accepts[dst], len(srcs)-want)
					}
				}
				if _, ok := nics[dst].Recv(eng.Now()); ok || accepts[dst] != len(srcs) {
					t.Fatal("Recv on an empty NIC delivered or fired OnAccept")
				}
				allIdle := func() bool {
					for _, nc := range nics {
						if !nc.Idle() {
							return false
						}
					}
					return true
				}
				if !eng.RunUntil(allIdle, 100000) {
					t.Fatalf("exchange not drained by cycle %d", eng.Now())
				}
				for n, nc := range nics {
					st := nc.Stats()
					if int(st.Sent) != sends[n] || int(st.Accepted) != accepts[n] {
						t.Errorf("node %d: Sent %d / OnSend %d, Accepted %d / OnAccept %d",
							n, st.Sent, sends[n], st.Accepted, accepts[n])
					}
				}
				for i, p := range sent {
					if p.AcceptedAt < p.CreatedAt {
						t.Errorf("packet %d accepted at %d before its creation at %d", i, p.AcceptedAt, p.CreatedAt)
					}
				}
			})
		}
	}
}
