package msg

import (
	"testing"
	"testing/quick"

	"nifdy/internal/core"
	"nifdy/internal/node"
	"nifdy/internal/packet"
	"nifdy/internal/sim"
	"nifdy/internal/topo/fattree"
)

func TestPayloadSizes(t *testing.T) {
	if got := (Config{Words: 6, InOrder: true}).Payload(); got != 5 {
		t.Fatalf("in-order payload = %d", got)
	}
	if got := (Config{Words: 6}).Payload(); got != 4 {
		t.Fatalf("generic payload = %d", got)
	}
	if got := (Config{Words: 8, InOrder: true}).Payload(); got != 7 {
		t.Fatalf("8-word payload = %d", got)
	}
}

func TestPacketsFor(t *testing.T) {
	c := Config{Words: 6, InOrder: true} // payload 5
	cases := map[int]int{1: 1, 5: 1, 6: 2, 10: 2, 11: 3, 100: 20}
	for words, want := range cases {
		if got := c.PacketsFor(words); got != want {
			t.Errorf("PacketsFor(%d) = %d, want %d", words, got, want)
		}
	}
}

func TestPrepareBulkBits(t *testing.T) {
	l := New(Config{Words: 6, InOrder: true, BulkThreshold: 3}, nil)
	b := l.Prepare(0, 5, 25) // 5 packets >= threshold
	if len(b.Packets) != 5 {
		t.Fatalf("%d packets", len(b.Packets))
	}
	for i, p := range b.Packets {
		wantReq := i < 4
		if p.BulkReq != wantReq {
			t.Fatalf("packet %d BulkReq = %v", i, p.BulkReq)
		}
		if p.Meta.Index != i || p.Meta.Total != 5 {
			t.Fatalf("packet %d meta %+v", i, p.Meta)
		}
	}
	short := l.Prepare(0, 5, 5) // 1 packet < threshold
	if short.Packets[0].BulkReq {
		t.Fatal("short transfer requested bulk")
	}
}

func TestPrepareBulkDisabled(t *testing.T) {
	l := New(Config{Words: 6, BulkThreshold: -1}, nil)
	b := l.Prepare(0, 5, 100)
	for _, p := range b.Packets {
		if p.BulkReq {
			t.Fatal("bulk requested with threshold disabled")
		}
	}
}

func TestReorderTagging(t *testing.T) {
	generic := New(Config{Words: 6}, nil)
	for _, p := range generic.Prepare(0, 1, 20).Packets {
		if p.Meta.Tag != node.TagNeedsReorder {
			t.Fatal("generic multi-packet transfer not tagged")
		}
	}
	// Single-packet transfers never need reordering.
	if generic.Prepare(0, 1, 3).Packets[0].Meta.Tag == node.TagNeedsReorder {
		t.Fatal("single packet tagged")
	}
	inOrder := New(Config{Words: 6, InOrder: true}, nil)
	for _, p := range inOrder.Prepare(0, 1, 20).Packets {
		if p.Meta.Tag == node.TagNeedsReorder {
			t.Fatal("in-order transfer tagged")
		}
	}
}

func TestUniqueMsgIDs(t *testing.T) {
	l := New(Config{}, nil)
	a := l.Prepare(0, 1, 10)
	b := l.Prepare(2, 3, 10)
	if a.Packets[0].Meta.MsgID == b.Packets[0].Meta.MsgID {
		t.Fatal("message ids collide")
	}
}

func TestPacketsForProperty(t *testing.T) {
	f := func(words uint16, inOrder bool) bool {
		w := int(words%500) + 1
		c := Config{Words: 6, InOrder: inOrder}
		n := c.PacketsFor(w)
		per := c.Payload()
		return n*per >= w && (n-1)*per < w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndBlockTransfer(t *testing.T) {
	tree := fattree.New(fattree.Config{Levels: 2, Seed: 4})
	eng := sim.New()
	tree.RegisterRoutersSharded(eng, tree.Partition(1))
	var ids packet.IDSource
	l := New(Config{Words: 6, InOrder: true}, &ids)
	var got []*packet.Packet
	want := l.Config().PacketsFor(60)
	var procs []*node.Proc
	for i := 0; i < 16; i++ {
		u := core.New(core.Config{Node: i, IDs: &ids, W: 4}, tree.Iface(i))
		eng.Register(u)
		var pr node.Program
		switch i {
		case 0:
			pr = func(p *node.Proc) { l.SendBlock(p, 9, 60, nil) }
		case 9:
			pr = func(p *node.Proc) {
				for len(got) < want {
					got = append(got, p.Recv())
				}
			}
		default:
			pr = func(p *node.Proc) {}
		}
		procs = append(procs, node.NewProc(i, u, node.CM5Costs(), pr))
		eng.Register(procs[i])
		procs[i].Start()
	}
	defer func() {
		for _, p := range procs {
			p.Stop()
		}
	}()
	done := func() bool { return procs[0].Done() && procs[9].Done() }
	if !eng.RunUntil(done, 500000) {
		t.Fatalf("transfer incomplete: %d/%d", len(got), want)
	}
	for i, p := range got {
		if p.Meta.Index != i {
			t.Fatalf("out of order at %d: %v", i, p)
		}
	}
}
