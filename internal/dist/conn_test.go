package dist

import (
	"bytes"
	"testing"
)

// pipePair returns two connected Conns (in-process loopback).
func pipePair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b, err := socketpair()
	if err != nil {
		t.Fatalf("socketpair: %v", err)
	}
	ca, cb := newConn(a), newConn(b)
	t.Cleanup(func() { ca.Close(); cb.Close() })
	return ca, cb
}

func TestConnRoundTrip(t *testing.T) {
	a, b := pipePair(t)
	for _, payload := range [][]byte{
		[]byte("hello"),
		{},
		bytes.Repeat([]byte{0xab}, 100_000),
	} {
		a.sendAsync(payload)
		got, err := b.readFrame()
		if err != nil {
			t.Fatalf("readFrame: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("frame of %d bytes arrived as %d bytes", len(payload), len(got))
		}
		if err := a.waitSent(); err != nil {
			t.Fatalf("waitSent: %v", err)
		}
	}
}

func TestConnPeerDeath(t *testing.T) {
	a, b := pipePair(t)
	b.Close()
	if _, err := a.readFrame(); err == nil {
		t.Fatal("readFrame succeeded on a dead peer")
	}
}
