package main

import (
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"speakup/internal/trace"
	"speakup/internal/wire"
)

// floodSpec is the flood-wire workload: open-loop payment ingest.
// floodChannels channels stay open (each OPENed, so the front holds a
// request for it), and CREDIT frames of floodFrame bytes — the flood
// adversary profile's payment size — go to them round robin at a
// fixed aggregate rate. No channel is shaped; only the class's total
// is paced, so every run offers the front the same bytes. Each
// millisecond's frames leave in one socket write, as a flooding
// client pipelines them, so the front reads them in batches and its
// CPU per frame is decode and credit, not how the frames happened to
// straddle its reads. The origin
// is slow (50 req/s: its 20 ms service times leave the host's sleep
// overshoot a small share), so auctions are rare next to frames, and
// the front's CPU goes to per-frame ingest.
func floodSpec() liveSpec {
	return liveSpec{
		name:     "flood-wire",
		wire:     true,
		conns:    nconns(),
		capacity: 50,
		// A channel waits about floodChannels / 50 = 5 s to win; warm
		// up past one generation of them.
		warm: 6 * time.Second,
		newGen: func(seed int64, clk *clock, traced bool) generator {
			return &floodGen{clk: clk, seed: seed, traced: traced}
		},
	}
}

const (
	floodChannels = 256
	floodFrame    = 1024
	floodRate     = 500_000 // CREDIT frames per second, all senders
)

type floodGen struct {
	clk     *clock
	seed    int64
	traced  bool
	senders []*floodSender
}

// floodSender owns one connection and the channels it pays on.
type floodSender struct {
	clk     *clock
	c       *wire.Client
	tap     *tapConn
	out     *batchConn
	traced  bool
	slots   []*floodSlot
	nextID  uint64
	idStep  uint64
	rate    float64
	waiters sync.WaitGroup
	res     genResult
}

// floodSlot is one open channel. Its waiter goroutine records the
// verdict; the sender retires the slot and opens a fresh channel in
// its place the next time round.
type floodSlot struct {
	rec      reqRec
	ch       <-chan wire.Result
	done     atomic.Bool
	verdict  atomic.Int64
	outcome  atomic.Uint32
	stopping atomic.Bool
}

// batchConn holds what the wire.Client writes until the sender
// flushes the burst in one write. It embeds the net.Conn interface, not
// the TCP connection, so wire.Client's header+payload writev reaches
// Write as two calls, both buffered. Only the sender's goroutine
// writes and flushes.
type batchConn struct {
	net.Conn
	buf []byte
}

func (b *batchConn) Write(p []byte) (int, error) {
	b.buf = append(b.buf, p...)
	return len(p), nil
}

func (b *batchConn) flush() error {
	if len(b.buf) == 0 {
		return nil
	}
	_, err := b.Conn.Write(b.buf)
	b.buf = b.buf[:0]
	return err
}

func (g *floodGen) connect(f *front) error {
	for i := 0; i < nconns(); i++ {
		nc, err := dialFront(f.wireAddr)
		if err != nil {
			g.close()
			return err
		}
		tap := newTapConn(nc)
		out := &batchConn{Conn: tap}
		g.senders = append(g.senders, &floodSender{
			clk: g.clk, c: wire.NewClient(out), tap: tap, out: out, traced: g.traced,
			nextID: idBase(g.seed) + uint64(i), idStep: uint64(nconns()),
			rate: float64(floodRate) / float64(nconns()),
		})
	}
	g.senders[0].res.log = &frameLog{budget: 16 << 20}
	return nil
}

func (g *floodGen) close() {
	for _, s := range g.senders {
		s.c.Close()
	}
}

func (g *floodGen) run(stop <-chan struct{}) {
	var wg sync.WaitGroup
	for i, s := range g.senders {
		rng := rand.New(rand.NewSource(g.seed*7919 + int64(i)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.run(stop, floodChannels/len(g.senders), rng)
		}()
	}
	wg.Wait()
}

func (g *floodGen) result() *genResult {
	out := &genResult{conns: len(g.senders)}
	for _, s := range g.senders {
		out.absorb(&s.res, s.tap)
	}
	return out
}

// open OPENs a fresh channel. A slot whose OPEN failed has a nil ch
// and its request is already recorded.
func (s *floodSender) open() *floodSlot {
	id := s.nextID
	s.nextID += s.idStep
	t0 := s.clk.now()
	ch, err := s.c.Open(coreID(id))
	t1 := s.clk.now()
	sl := &floodSlot{rec: reqRec{id: id, sched: t0, sent: t1}}
	s.res.log.add(wire.OpOpen, id, 0)
	if err != nil {
		sl.rec.outcome = outError
		s.res.reqs = append(s.res.reqs, sl.rec)
		return sl
	}
	if s.traced && trace.Sampled(id, traceSample) {
		s.res.spans = append(s.res.spans, span{ID: id, Name: "wire.open", Parent: "request", Start: t0, End: t1})
	}
	sl.ch = ch
	s.waiters.Add(1)
	go func() {
		defer s.waiters.Done()
		r := <-ch
		sl.verdict.Store(s.clk.now())
		sl.outcome.Store(uint32(outcomeOf(r.Status)))
		sl.done.Store(true)
	}()
	return sl
}

// retire records a slot's finished request.
func (s *floodSender) retire(sl *floodSlot) {
	rec := sl.rec
	rec.verdict = sl.verdict.Load()
	rec.outcome = uint8(sl.outcome.Load())
	if sl.stopping.Load() && rec.outcome == outError {
		// Closed by the generator at the end of the run: unresolved,
		// not failed.
		rec.outcome, rec.verdict = outPending, 0
	}
	if s.traced && rec.verdict != 0 && trace.Sampled(rec.id, traceSample) {
		s.res.spans = append(s.res.spans, span{ID: rec.id, Name: "request", Start: rec.sched, End: rec.verdict})
	}
	s.res.reqs = append(s.res.reqs, rec)
}

func (s *floodSender) run(stop <-chan struct{}, n int, rng *rand.Rand) {
	s.slots = make([]*floodSlot, n)
	for i := range s.slots {
		s.slots[i] = s.open()
	}
	s.out.flush() // a failed connection fails the first burst's flush too
	rng.Shuffle(len(s.slots), func(i, j int) { s.slots[i], s.slots[j] = s.slots[j], s.slots[i] })

	perFrame := 1e9 / s.rate
	maxBurst := max(int(s.rate/200), 1) // 5 ms of frames
	start := s.clk.now()
	var sent int64
	k := 0
loop:
	for {
		select {
		case <-stop:
			break loop
		default:
		}
		now := s.clk.now()
		due := int64(float64(now-start) / perFrame)
		if sent >= due {
			time.Sleep(time.Millisecond)
			continue
		}
		s.res.lateness = append(s.res.lateness, timed{now, now - start - int64(float64(sent)*perFrame)})
		burst := min(due-sent, int64(maxBurst))
		var pay int64
		for j := int64(0); j < burst; j++ {
			sl := s.slots[k]
			if sl.done.Load() {
				s.retire(sl)
				sl = s.open()
				s.slots[k] = sl
			}
			k = (k + 1) % len(s.slots)
			if sl.ch == nil {
				continue
			}
			s.c.Credit(coreID(sl.rec.id), floodFrame) // buffered: cannot fail
			s.res.frames++
			pay += floodFrame
			s.res.log.add(wire.OpCredit, sl.rec.id, floodFrame)
		}
		// The burst's one socket write: the time it blocks is the time
		// the front's reads hold the sender back.
		t0 := s.clk.now()
		err := s.out.flush()
		t1 := s.clk.now()
		if err != nil {
			break loop // the connection failed; its channels resolve with errors
		}
		s.res.blocks = append(s.res.blocks, timed{t1, t1 - t0})
		s.res.sentBytes += pay
		sent += burst
	}
	// The generator fell behind if it ended more than 2% short of its
	// schedule.
	due := float64(s.clk.now()-start) / perFrame
	s.res.behind = float64(sent) < 0.98*due-float64(maxBurst)
	for _, sl := range s.slots {
		if sl.ch != nil && !sl.done.Load() {
			sl.stopping.Store(true)
			s.c.CloseChannel(coreID(sl.rec.id))
		}
	}
	s.out.flush()
	s.waiters.Wait()
	for _, sl := range s.slots {
		if sl.ch != nil {
			s.retire(sl)
		}
	}
}
