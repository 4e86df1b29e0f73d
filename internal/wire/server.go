package wire

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"speakup/internal/core"
	"speakup/internal/metrics"
	"speakup/internal/trace"
)

// Backend is the front the wire listener feeds — the same arrival
// protocol, bid table, auction, and brownout ladder the HTTP listener
// uses. web.Front implements it (asserted in the speakup facade).
type Backend interface {
	// Arrive registers w (a core.Waiter) as id's waiter and announces
	// the arrival to the thinner under the front's control lock,
	// returning the pinned shed/duplicate/held verdict.
	Arrive(id core.RequestID, w any) core.ArriveVerdict
	// Channel resolves id's payment channel at the front's clock.
	Channel(id core.RequestID) *core.PayChan
	// ReleaseWaiter drops w's registration for id if still current.
	ReleaseWaiter(id core.RequestID, w any)
	// Now reads the front's clock; credits are stamped with it so both
	// transports age channels on one epoch.
	Now() time.Duration
}

// ServerConfig tunes a wire Server.
type ServerConfig struct {
	// Registry receives the wire connection gauge and per-read
	// frame/byte tallies (nil: no telemetry). Pass the front's own
	// registry so /telemetry covers both listeners.
	Registry *metrics.Registry
	// Tracer receives sampled credit events (nil: no tracing). Pass
	// the front's own tracer (web.Front.Tracer) so an id paying over
	// both transports lands in one co-sampled lifecycle record.
	Tracer *trace.Tracer
	// ReadBuf is the per-connection read-buffer size. One socket Read
	// into it drains many frames through the decoder. Default 256 KB.
	ReadBuf int
	// EventQueue bounds the per-connection server→client event queue.
	// A client that stops draining events overflows it and is
	// disconnected (events may be delivered from the thinner's control
	// path, which must never block on a slow client). Default 256.
	EventQueue int
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.ReadBuf == 0 {
		c.ReadBuf = 256 << 10
	}
	if c.EventQueue == 0 {
		c.EventQueue = 256
	}
	return c
}

// Server accepts wire-protocol connections and drives a Backend.
type Server struct {
	be  Backend
	cfg ServerConfig

	mu     sync.Mutex
	conns  map[*conn]struct{}
	lns    map[net.Listener]struct{}
	closed bool
}

// NewServer creates a server for be. Serve it on any listener.
func NewServer(be Backend, cfg ServerConfig) *Server {
	return &Server{
		be:    be,
		cfg:   cfg.withDefaults(),
		conns: make(map[*conn]struct{}),
		lns:   make(map[net.Listener]struct{}),
	}
}

// Serve accepts connections on ln until ln fails or the server is
// closed. It returns nil after Close, mirroring http.Server's
// ErrServerClosed contract in spirit.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.lns, ln)
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		c := newConn(s, nc)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		go c.serve()
	}
}

// Close stops every listener passed to Serve and tears down all open
// connections (their waiters are released as the readers unwind).
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	lns := make([]net.Listener, 0, len(s.lns))
	for ln := range s.lns {
		lns = append(lns, ln)
	}
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, c := range conns {
		c.teardown()
	}
}

func (s *Server) drop(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// event is one queued server→client frame.
type event struct {
	op      byte
	ch      uint64
	payload []byte
}

// connChan is the reader-goroutine-owned state of one channel id on
// one connection. It is created by the id's first OPEN or CREDIT and
// lives until the connection's retirement pass finds it dead (see
// retire): its waiter delivered, released, or never registered, and
// its cached channel nil or settled. A retired id is indistinguishable
// from one the connection never saw, so a later frame for it simply
// creates a fresh entry.
type connChan struct {
	// pc caches the id's payment channel; nil until the first CREDIT
	// (and again after an OPEN, so the next credit re-resolves).
	pc *core.PayChan
	// w is the waiter registered by OPEN, nil for pay-only (orphan)
	// channels or after CLOSE released it. A delivered waiter stays
	// until retirement; it no longer holds a registration.
	w *connWaiter
	// notified records that this channel resolution already got its
	// terminal orphan event, so a flood of post-settle CREDIT spans
	// produces one event, not thousands.
	notified bool
}

// dead reports whether cc holds nothing the connection still needs:
// no undelivered waiter and no active payment channel.
func (cc *connChan) dead() bool {
	return (cc.w == nil || cc.w.delivered.Load()) &&
		(cc.pc == nil || cc.pc.State() != core.ChanActive)
}

// minRetireAt is the channel-map size below which a connection never
// runs a retirement pass: small maps are cheap to keep whole.
const minRetireAt = 64

// conn is one wire connection: a reader goroutine that owns the
// decoder and channel map, and a writer goroutine that coalesces
// queued events into batched, flushed writes.
type conn struct {
	srv *Server
	nc  net.Conn

	out       chan event
	closed    chan struct{}
	closeOnce sync.Once

	// Reader-owned state below (the Sink implementation).
	chans    map[uint64]*connChan
	retireAt int           // len(chans) that triggers the next retire pass
	now      time.Duration // refreshed once per socket read
	credited int64         // bytes credited during the current read
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{
		srv:      s,
		nc:       nc,
		out:      make(chan event, s.cfg.EventQueue),
		closed:   make(chan struct{}),
		chans:    make(map[uint64]*connChan),
		retireAt: minRetireAt,
	}
}

func (c *conn) teardown() {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.nc.Close()
	})
}

// send enqueues one event without ever blocking: Deliver may run on
// the thinner's control path, and a client that stops reading must
// not wedge auctions. Overflow drops the whole connection.
func (c *conn) send(op byte, ch uint64, payload []byte) {
	select {
	case c.out <- event{op: op, ch: ch, payload: payload}:
	case <-c.closed:
	default:
		c.teardown()
	}
}

// Canonical event payloads, mirroring the HTTP front's error bodies.
var (
	evictBody  = []byte("evicted: payment channel timed out")
	rejectBody = []byte("duplicate request id: a request with this id is already waiting")
	shedBody   = []byte("origin brownout: auctions paused, retry shortly")
)

// connWaiter adapts a conn to core.Waiter for one OPEN of one channel
// id. Deliver runs on front goroutines (admit's origin worker, the
// sweep under the control lock), never the conn's own; it touches only
// the delivered flag and the event queue, so it shares no lock with
// the reader and never blocks. The reader reads the flag to retire the
// entry.
type connWaiter struct {
	c         *conn
	ch        uint64
	delivered atomic.Bool
}

// Deliver implements core.Waiter: the held request's outcome becomes
// a server→client event.
func (w *connWaiter) Deliver(body []byte) {
	w.delivered.Store(true)
	if body == nil {
		w.c.send(OpEvict, w.ch, evictBody)
		return
	}
	w.c.send(OpAdmit, w.ch, body)
}

func (c *conn) serve() {
	defer c.srv.drop(c)
	reg := c.srv.cfg.Registry
	if reg != nil {
		reg.RecordWireConn(1)
		defer reg.RecordWireConn(-1)
	}
	go c.writeLoop()

	buf := make([]byte, c.srv.cfg.ReadBuf)
	dec := &Decoder{}
	var lastFrames uint64
	for {
		n, err := c.nc.Read(buf)
		if n > 0 {
			// One clock read and one registry update per socket read:
			// the batch is the unit of accounting, not the frame.
			c.now = c.srv.be.Now()
			c.credited = 0
			ferr := dec.Feed(buf[:n], c)
			if reg != nil {
				reg.RecordWireRead(dec.Frames()-lastFrames, c.credited)
				lastFrames = dec.Frames()
			}
			if ferr != nil {
				break // protocol violation: drop the connection
			}
		}
		if err != nil {
			break
		}
		select {
		case <-c.closed:
			err = net.ErrClosed
		default:
		}
		if err != nil {
			break
		}
	}
	c.teardown()
	// Mid-connection disconnect drains waiters: every still-registered
	// waiter is released so held requests do not strand until
	// RequestTimeout (the HTTP analog is the request context
	// canceling). Channels keep their balances and settle by timeout,
	// exactly as when an HTTP client vanishes.
	for id, cc := range c.chans {
		if cc.w != nil {
			c.srv.be.ReleaseWaiter(core.RequestID(id), cc.w)
			cc.w = nil
		}
	}
}

// state returns ch's entry, creating it if the connection has none.
// Creation is where the map grows, so it is also where a retirement
// pass runs once the map has doubled since the last one.
func (c *conn) state(ch uint64) *connChan {
	cc := c.chans[ch]
	if cc == nil {
		if len(c.chans) >= c.retireAt {
			c.retire()
		}
		cc = &connChan{}
		c.chans[ch] = cc
	}
	return cc
}

// retire deletes every dead entry (see connChan.dead), dropping the
// references that would otherwise pin each settled PayChan and
// delivered waiter for the connection's lifetime. Passes run only when
// the map has doubled, so their cost amortizes to O(1) per created
// entry and the map stays within about twice the live channels. The
// decoder creates entries only at frame starts, so a pass never lands
// inside another id's CREDIT frame.
func (c *conn) retire() {
	for id, cc := range c.chans {
		if cc.dead() {
			delete(c.chans, id)
		}
	}
	c.retireAt = max(2*len(c.chans), minRetireAt)
}

// Open implements Sink: the re-issued request arrives. Verdicts map
// exactly onto the HTTP front's 409/503 replies.
func (c *conn) Open(ch uint64) {
	cc := c.state(ch)
	w := &connWaiter{c: c, ch: ch}
	switch c.srv.be.Arrive(core.RequestID(ch), w) {
	case core.ArriveOK:
		cc.w = w
		cc.pc = nil // next credit resolves the (possibly fresh) channel
		cc.notified = false
	case core.ArriveDuplicate:
		c.send(OpReject, ch, rejectBody)
	case core.ArriveShed:
		c.send(OpShed, ch, shedBody)
	}
}

// Credit implements Sink: n payload bytes of a CREDIT frame landed.
// The cached channel makes the steady state one atomic add per span;
// a frame-initial span re-resolves a settled channel the way every
// fresh HTTP POST /pay does.
func (c *conn) Credit(ch uint64, n int, first bool) {
	cc := c.state(ch)
	if cc.pc == nil || (first && cc.pc.State() != core.ChanActive) {
		cc.pc = c.srv.be.Channel(core.RequestID(ch))
		cc.notified = false
	}
	if n > 0 {
		if cc.pc.Credit(int64(n), c.now) {
			c.credited += int64(n)
			c.srv.cfg.Tracer.OnCredit(ch, int64(n), c.now, trace.TransportWire)
			return
		}
		// The channel settled mid-frame. An OPENed channel's outcome
		// arrives through its waiter; a pay-only channel has no waiter,
		// so tell the payer once to stop streaming (the HTTP /pay
		// response's "admitted"/"evicted" status).
		if cc.w == nil && !cc.notified {
			if cc.pc.State() == core.ChanEvicted {
				c.send(OpEvict, ch, evictBody)
			} else {
				c.send(OpAdmit, ch, nil)
			}
			cc.notified = true
		}
	}
}

// Close implements Sink: the client abandoned the request. The waiter
// registration is dropped (if still current); the payment channel and
// its balance stay, settling by timeout like any orphan.
func (c *conn) Close(ch uint64) {
	cc := c.chans[ch]
	if cc == nil {
		return
	}
	if cc.w != nil {
		c.srv.be.ReleaseWaiter(core.RequestID(ch), cc.w)
		cc.w = nil
	}
}

func (c *conn) writeLoop() {
	bw := bufio.NewWriterSize(c.nc, 64<<10)
	var hdr [HeaderSize]byte
	for {
		var ev event
		select {
		case <-c.closed:
			return
		case ev = <-c.out:
		}
		// Coalesce: drain everything queued into the buffered writer,
		// then flush once when the queue goes idle. A sweep evicting a
		// thousand channels on this conn costs one flush, not a
		// thousand small writes.
		for {
			PutHeader(hdr[:], ev.op, ev.ch, len(ev.payload))
			if _, err := bw.Write(hdr[:]); err != nil {
				c.teardown()
				return
			}
			if len(ev.payload) > 0 {
				if _, err := bw.Write(ev.payload); err != nil {
					c.teardown()
					return
				}
			}
			select {
			case ev = <-c.out:
				continue
			default:
			}
			break
		}
		if err := bw.Flush(); err != nil {
			c.teardown()
			return
		}
	}
}
