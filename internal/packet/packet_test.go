package packet

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestFlitsEqualsWords(t *testing.T) {
	p := &Packet{Words: 8}
	if p.Flits() != 8 {
		t.Fatalf("Flits = %d", p.Flits())
	}
	if p.Bytes() != 32 {
		t.Fatalf("Bytes = %d", p.Bytes())
	}
}

func TestHeadTail(t *testing.T) {
	p := &Packet{Words: 3}
	cases := []struct {
		idx        int
		head, tail bool
	}{{0, true, false}, {1, false, false}, {2, false, true}}
	for _, c := range cases {
		f := Flit{Pkt: p, Index: c.idx}
		if f.Head() != c.head || f.Tail() != c.tail {
			t.Errorf("flit %d: head=%v tail=%v", c.idx, f.Head(), f.Tail())
		}
	}
}

func TestSingleFlitIsHeadAndTail(t *testing.T) {
	p := &Packet{Words: 1}
	f := Flit{Pkt: p, Index: 0}
	if !f.Head() || !f.Tail() {
		t.Fatal("single-flit packet must be both head and tail")
	}
}

func TestValidateAcceptsGoodPackets(t *testing.T) {
	good := []*Packet{
		{Src: 0, Dst: 63, Words: 8, Dialog: NoDialog},
		{Src: 5, Dst: 5, Words: 6, Dialog: NoDialog, Class: Request},
		{Src: 1, Dst: 2, Words: 1, Kind: Ack, Class: Reply, Dialog: NoDialog},
		{Src: 1, Dst: 2, Words: 6, Dialog: 3, Seq: 7},
	}
	for i, p := range good {
		if err := p.Validate(64); err != nil {
			t.Errorf("packet %d: %v", i, err)
		}
	}
}

func TestValidateRejectsBadPackets(t *testing.T) {
	bad := []*Packet{
		{Src: -1, Dst: 0, Words: 8, Dialog: NoDialog},
		{Src: 0, Dst: 64, Words: 8, Dialog: NoDialog},
		{Src: 0, Dst: 0, Words: 0, Dialog: NoDialog},
		{Src: 0, Dst: 0, Words: 4, Kind: Ack, Class: Reply, Dialog: NoDialog},
		{Src: 0, Dst: 0, Words: 1, Kind: Ack, Class: Request, Dialog: NoDialog},
		{Src: 0, Dst: 0, Words: 8, Dialog: -5},
	}
	for i, p := range bad {
		if err := p.Validate(64); err == nil {
			t.Errorf("packet %d: Validate accepted %v", i, p)
		}
	}
}

func TestInDialog(t *testing.T) {
	if (&Packet{Dialog: NoDialog}).InDialog() {
		t.Fatal("NoDialog packet reports InDialog")
	}
	if !(&Packet{Dialog: 0}).InDialog() {
		t.Fatal("dialog-0 packet reports no dialog")
	}
}

func TestStringForms(t *testing.T) {
	p := &Packet{ID: 9, Src: 1, Dst: 2, Words: 8, Dialog: 1, Seq: 3, BulkExit: true}
	s := p.String()
	for _, want := range []string{"data#9", "1->2", "dlg=1", "seq=3", "bulkexit"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
	a := &Packet{ID: 1, Kind: Ack, Words: 1, Grant: Granted, Dialog: 0}
	if !strings.Contains(a.String(), "grant=granted") {
		t.Errorf("ack String %q missing grant", a.String())
	}
}

func TestKindClassGrantStrings(t *testing.T) {
	if Data.String() != "data" || Ack.String() != "ack" {
		t.Fatal("Kind strings")
	}
	if Request.String() != "request" || Reply.String() != "reply" {
		t.Fatal("Class strings")
	}
	if Granted.String() != "granted" || Rejected.String() != "rejected" || GrantNone.String() != "none" {
		t.Fatal("GrantKind strings")
	}
	if Kind(9).String() == "" || Class(9).String() == "" || GrantKind(9).String() == "" {
		t.Fatal("unknown enum values must stringify")
	}
}

func TestIDSourceUnique(t *testing.T) {
	var s IDSource
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := s.Next()
		if id == 0 {
			t.Fatal("IDSource returned zero (reserved for unset)")
		}
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
}

func TestFlitIndexProperty(t *testing.T) {
	// Property: exactly one head and one tail among a packet's flits.
	f := func(words uint8) bool {
		w := int32(words%32) + 1
		p := &Packet{Words: w}
		heads, tails := 0, 0
		for i := 0; i < p.Flits(); i++ {
			fl := Flit{Pkt: p, Index: i}
			if fl.Head() {
				heads++
			}
			if fl.Tail() {
				tails++
			}
		}
		return heads == 1 && tails == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPacketSize holds the packet to 120 bytes. The benchmark's pump pool
// and every NIC's packet pool are multiples of this size, so a field that
// adds padding or widens a header counter shows up in every large
// simulation's memory; keep the one-byte fields together and the header
// counters at int32.
func TestPacketSize(t *testing.T) {
	if got := reflect.TypeOf(Packet{}).Size(); got > 120 {
		t.Fatalf("packet.Packet is %d bytes, want at most 120: the bench's pump pool and every NIC pool are multiples of it", got)
	}
}
