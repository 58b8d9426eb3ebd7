package packet

import (
	"reflect"
	"testing"
)

// dirtyings each set one field (or a related group) to a non-fresh value; a
// packet returned to the pool and reissued must come back indistinguishable
// from a fresh one no matter which of them its previous life exercised.
// Stale dialog/seq/grant bits in particular would corrupt the NIFDY
// protocol silently.
var dirtyings = []struct {
	name  string
	dirty func(p *Packet)
}{
	{"identity", func(p *Packet) { p.ID = 42; p.Src = 3; p.Dst = 9; p.Words = 8 }},
	{"kind-ack", func(p *Packet) { p.Kind = Ack }},
	{"class-reply", func(p *Packet) { p.Class = Reply }},
	{"bulk-bits", func(p *Packet) { p.BulkReq = true; p.BulkExit = true }},
	{"noack", func(p *Packet) { p.NoAck = true }},
	{"dup-retransmit", func(p *Packet) { p.Dup = true; p.Retransmit = true }},
	{"ecn-cnp", func(p *Packet) { p.ECN = true; p.CNP = true }},
	{"dialog-seq", func(p *Packet) { p.Dialog = 2; p.Seq = 17 }},
	{"grant-granted", func(p *Packet) { p.Grant = Granted }},
	{"grant-rejected", func(p *Packet) { p.Grant = Rejected }},
	{"bulkack-cum", func(p *Packet) { p.BulkAck = true; p.CumSeq = 31 }},
	{"piggyback", func(p *Packet) { p.PiggyAck = true }},
	{"meta", func(p *Packet) {
		p.Meta = Meta{MsgID: 7, Index: 2, Total: 5, Tag: 1, Value: 99}
	}},
	{"timestamps", func(p *Packet) {
		p.CreatedAt = 100
		p.InjectedAt = 140
		p.DeliveredAt = 900
		p.AcceptedAt = 960
	}},
	{"everything", func(p *Packet) {
		*p = Packet{ID: 1, Src: 1, Dst: 2, Kind: Ack, Class: Reply, Words: 1,
			BulkReq: true, BulkExit: true, NoAck: true, Dup: true, Retransmit: true,
			ECN: true, CNP: true,
			Dialog: 3, Seq: 4, Grant: Granted, BulkAck: true, CumSeq: 5,
			PiggyAck:  true,
			Meta:      Meta{MsgID: 6, Index: 7, Total: 8, Tag: 9, Value: 10},
			CreatedAt: 11, InjectedAt: 12, DeliveredAt: 13, AcceptedAt: 14}
	}},
}

// TestPoolRecycledPacketIsFresh is the pool-recycling correctness test: for
// every way a packet's previous life can dirty it, Put+Get must yield the
// canonical fresh state.
func TestPoolRecycledPacketIsFresh(t *testing.T) {
	fresh := Packet{Dialog: NoDialog}
	for _, tc := range dirtyings {
		t.Run(tc.name, func(t *testing.T) {
			var pl Pool
			p := pl.Get()
			if !reflect.DeepEqual(*p, fresh) {
				t.Fatalf("first Get not fresh: %+v", *p)
			}
			tc.dirty(p)
			pl.Put(p)
			q := pl.Get()
			if q != p {
				t.Fatalf("pool did not recycle (got a different pointer)")
			}
			if !reflect.DeepEqual(*q, fresh) {
				t.Errorf("recycled packet not fresh after %q:\n got %+v\nwant %+v",
					tc.name, *q, fresh)
			}
		})
	}
}

// TestPoolDirtyingsCoverAllFields guards the table above against rot: if a
// field is added to Packet that no dirtying touches, this fails, forcing the
// table (and the reset) to be revisited.
func TestPoolDirtyingsCoverAllFields(t *testing.T) {
	fresh := Packet{Dialog: NoDialog}
	touched := map[string]bool{}
	for _, tc := range dirtyings {
		p := fresh
		tc.dirty(&p)
		pv, fv := reflect.ValueOf(p), reflect.ValueOf(fresh)
		for i := 0; i < pv.NumField(); i++ {
			if !reflect.DeepEqual(pv.Field(i).Interface(), fv.Field(i).Interface()) {
				touched[pv.Type().Field(i).Name] = true
			}
		}
	}
	typ := reflect.TypeOf(fresh)
	for i := 0; i < typ.NumField(); i++ {
		if !touched[typ.Field(i).Name] {
			t.Errorf("no dirtying covers field %s; extend the table", typ.Field(i).Name)
		}
	}
}

func TestPoolNilSafe(t *testing.T) {
	var pl *Pool
	p := pl.Get()
	if p == nil || p.Dialog != NoDialog {
		t.Fatalf("nil pool Get returned %+v", p)
	}
	pl.Put(p) // must not panic
	if pl.Size() != 0 {
		t.Fatal("nil pool has a size")
	}
}

func TestPoolLIFOAndStats(t *testing.T) {
	var pl Pool
	a, b := pl.Get(), pl.Get()
	pl.Put(a)
	pl.Put(b)
	if got := pl.Get(); got != b {
		t.Fatal("pool is not LIFO")
	}
	if got := pl.Get(); got != a {
		t.Fatal("second Get did not return the older entry")
	}
	gets, puts, news := pl.Stats()
	if gets != 4 || puts != 2 || news != 2 {
		t.Fatalf("stats = %d,%d,%d; want 4,2,2", gets, puts, news)
	}
}

func TestPoolPutNil(t *testing.T) {
	var pl Pool
	pl.Put(nil)
	if pl.Size() != 0 {
		t.Fatal("Put(nil) pooled something")
	}
}
