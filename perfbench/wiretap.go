package main

import (
	"encoding/binary"
	"errors"
	"maps"
	"net"
	"sync"
	"syscall"
	"time"

	"speakup/internal/wire"
)

// clock is the generator's monotonic time base: nanoseconds since the
// run began. Every schedule, sample and window edge uses it.
type clock struct{ epoch time.Time }

func newClock() *clock { return &clock{epoch: time.Now()} }

func (c *clock) now() int64 { return int64(time.Since(c.epoch)) }

// tapConn sits between a wire.Client and its TCP connection. It counts
// every server→client event per channel id, which wire.Client cannot
// report: the client resolves a channel on its first event and drops
// any later one silently, so a duplicate verdict is only visible on
// the byte stream. Writes are untouched: the embedded *net.TCPConn
// still serves wire.Client's header+payload writev.
type tapConn struct {
	*net.TCPConn

	mu     sync.Mutex
	hdr    [wire.HeaderSize]byte
	hdrLen int
	skip   int               // payload bytes of the current event still to skip
	events map[uint64]uint32 // channel id → events received
}

func newTapConn(c *net.TCPConn) *tapConn {
	return &tapConn{TCPConn: c, events: make(map[uint64]uint32)}
}

// Read implements io.Reader, parsing event headers as they pass.
func (t *tapConn) Read(b []byte) (int, error) {
	n, err := t.TCPConn.Read(b)
	t.mu.Lock()
	p := b[:n]
	for len(p) > 0 {
		if t.skip > 0 {
			k := min(t.skip, len(p))
			t.skip -= k
			p = p[k:]
			continue
		}
		k := copy(t.hdr[t.hdrLen:], p)
		t.hdrLen += k
		p = p[k:]
		if t.hdrLen < wire.HeaderSize {
			break
		}
		t.hdrLen = 0
		t.skip = int(binary.BigEndian.Uint32(t.hdr[0:4]))
		t.events[binary.BigEndian.Uint64(t.hdr[5:13])]++
	}
	t.mu.Unlock()
	return n, err
}

// eventCounts returns a copy of the per-channel event tallies.
func (t *tapConn) eventCounts() map[uint64]uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return maps.Clone(t.events)
}

// dialWire connects one tapped wire client to addr.
func dialWire(addr string) (*wire.Client, *tapConn, error) {
	nc, err := dialFront(addr)
	if err != nil {
		return nil, nil, err
	}
	tap := newTapConn(nc)
	return wire.NewClient(tap), tap, nil
}

// dialFront connects to the front's wire listener. thinnerd binds that
// listener just after its HTTP one, so /healthz can answer 200 a
// moment before the wire port accepts: a refused dial is retried for
// up to a second.
func dialFront(addr string) (*net.TCPConn, error) {
	deadline := time.Now().Add(time.Second)
	for {
		nc, err := net.Dial("tcp", addr)
		if err == nil {
			return nc.(*net.TCPConn), nil
		}
		if !errors.Is(err, syscall.ECONNREFUSED) || time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// frameLog records the client→server frame sequence one connection's
// sender wrote (up to a byte budget), so the decoder replay can feed
// the front's exact input through wire.Decoder in process. It has a
// single writer: the goroutine that owns the connection's sends.
type frameLog struct {
	budget int
	frames []loggedFrame
	bytes  int
}

type loggedFrame struct {
	op  byte
	ch  uint64
	len int
}

func (l *frameLog) add(op byte, ch uint64, n int) {
	if l == nil || l.bytes >= l.budget {
		return
	}
	l.frames = append(l.frames, loggedFrame{op, ch, n})
	l.bytes += wire.HeaderSize + n
}

// stream serializes the logged frames as the bytes the front read.
func (l *frameLog) stream() ([]byte, int) {
	out := make([]byte, 0, l.bytes)
	var hdr [wire.HeaderSize]byte
	for _, f := range l.frames {
		wire.PutHeader(hdr[:], f.op, f.ch, f.len)
		out = append(out, hdr[:]...)
		out = append(out, make([]byte, f.len)...)
	}
	return out, len(l.frames)
}
