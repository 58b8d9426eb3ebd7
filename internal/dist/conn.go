package dist

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// maxFrame bounds a single frame; anything larger indicates stream
// corruption rather than a legitimate exchange.
const maxFrame = 1 << 28

// Conn is one duplex peer (or launcher control) connection: length-prefixed
// frames over a Unix socketpair end.
//
// Sends are asynchronous — sendAsync hands the buffer to a dedicated writer
// goroutine and waitSent joins it — so a full-mesh exchange can put every
// peer's frame in flight before any peer starts draining, which is what
// makes the all-send-then-all-receive boundary protocol deadlock-free
// regardless of kernel socket buffer sizes. The caller owns the buffer again
// only after waitSent.
type Conn struct {
	f *os.File

	sendCh   chan []byte
	errCh    chan error
	inFlight bool

	rbuf []byte
}

// newConn wraps an open socketpair end. The writer goroutine lives until
// Close.
func newConn(f *os.File) *Conn {
	c := &Conn{f: f, sendCh: make(chan []byte), errCh: make(chan error, 1)}
	go c.writer(c.sendCh)
	return c
}

// writer is the per-connection send goroutine: one frame per sendAsync,
// one completion per frame on errCh. The channel arrives as a parameter
// rather than through the field, which Close nils concurrently.
func (c *Conn) writer(in <-chan []byte) {
	var hdr [4]byte
	for b := range in {
		binary.BigEndian.PutUint32(hdr[:], uint32(len(b)))
		_, err := c.f.Write(hdr[:])
		if err == nil && len(b) > 0 {
			_, err = c.f.Write(b)
		}
		c.errCh <- err
	}
}

// sendAsync queues b for transmission. The caller must not touch b again
// until waitSent returns. At most one send may be in flight per Conn.
func (c *Conn) sendAsync(b []byte) {
	if c.inFlight {
		panic("dist: sendAsync with a send already in flight")
	}
	if len(b) > maxFrame {
		panic(fmt.Sprintf("dist: frame of %d bytes exceeds limit", len(b)))
	}
	c.inFlight = true
	c.sendCh <- b
}

// waitSent joins the in-flight send, returning its write error.
func (c *Conn) waitSent() error {
	if !c.inFlight {
		return nil
	}
	c.inFlight = false
	return <-c.errCh
}

// send transmits b synchronously (control-path convenience).
func (c *Conn) send(b []byte) error {
	c.sendAsync(b)
	return c.waitSent()
}

// readFrame reads one frame, returning a buffer valid until the next call.
func (c *Conn) readFrame() ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(c.f, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > maxFrame {
		return nil, fmt.Errorf("dist: frame header claims %d bytes", n)
	}
	if cap(c.rbuf) < n {
		c.rbuf = make([]byte, n)
	}
	b := c.rbuf[:n]
	if _, err := io.ReadFull(c.f, b); err != nil {
		return nil, err
	}
	return b, nil
}

// Close tears the connection down: the writer goroutine exits and the
// underlying descriptor is closed (unblocking any pending read with an
// error, which is how peers observe a crashed process).
func (c *Conn) Close() error {
	if c.sendCh != nil {
		if c.inFlight {
			c.inFlight = false
			<-c.errCh
		}
		close(c.sendCh)
		c.sendCh = nil
	}
	return c.f.Close()
}
