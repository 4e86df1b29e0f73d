package main

import (
	"math/rand"
	"sync"
	"time"

	"speakup/internal/trace"
	"speakup/internal/wire"
)

// churnSpec is the churn-wire workload: the paper's Fig 2 point
// f = 0.5 (configs/fig2.json) scaled about x5. 125 good clients
// (lambda 2/s, window 1) and 125 bad clients (lambda 40/s, window 20)
// each pay through a 2 Mbit/s token bucket against a 500 req/s origin.
// Good demand equals the good clients' bandwidth share of capacity, so
// the good share of admissions reads the auction's allocation. Every
// admission is an auction over the bad clients' ~2500 outstanding
// requests, so the control path does the work while ingest stays
// modest. Arrivals are Poisson from the seed: open loop.
func churnSpec() liveSpec {
	return liveSpec{
		name:     "churn-wire",
		wire:     true,
		conns:    nconns(),
		capacity: 500,
		// Bad requests wait about 10 s to win; the going price settles
		// once the first generation of them has turned over.
		warm: 12 * time.Second,
		tail: 3 * time.Second,
		newGen: func(seed int64, clk *clock, traced bool) generator {
			return &churnGen{clk: clk, seed: seed, traced: traced}
		},
	}
}

const (
	churnClients   = 125 // per class
	churnBandwidth = 2e6 // bits/s per client
	churnFrame     = 2048
	churnTick      = time.Millisecond
)

type churnGen struct {
	clk    *clock
	seed   int64
	traced bool
	scheds []*churnSched
}

// churnSched owns one connection and the clients that use it. It runs
// every client's arrivals and token bucket on one tick loop.
type churnSched struct {
	clk      *clock
	c        *wire.Client
	tap      *tapConn
	traced   bool
	clients  []*churnClient
	nextID   uint64
	idStep   uint64
	verdicts chan verdictMsg
	waiters  sync.WaitGroup
	res      genResult
}

type churnClient struct {
	good   bool
	lambda float64
	window int
	rng    *rand.Rand
	next   int64 // next arrival, generator-clock ns
	tokens float64
	out    []*churnReq
	rr     int
}

type churnReq struct {
	rec    reqRec
	client *churnClient
}

type verdictMsg struct {
	req     *churnReq
	status  wire.Status
	at      int64
	stopped bool
}

func (g *churnGen) connect(f *front) error {
	n := nconns()
	for i := 0; i < n; i++ {
		c, tap, err := dialWire(f.wireAddr)
		if err != nil {
			g.close()
			return err
		}
		g.scheds = append(g.scheds, &churnSched{
			clk: g.clk, c: c, tap: tap, traced: g.traced,
			nextID: idBase(g.seed) + uint64(i), idStep: uint64(n),
		})
	}
	for j := 0; j < 2*churnClients; j++ {
		cl := &churnClient{good: j%2 == 0, lambda: 40, window: 20,
			rng: rand.New(rand.NewSource(g.seed*1_000_003 + int64(j)))}
		if cl.good {
			cl.lambda, cl.window = 2, 1
		}
		s := g.scheds[(j/2)%n]
		s.clients = append(s.clients, cl)
	}
	for _, s := range g.scheds {
		bound := 0
		for _, cl := range s.clients {
			bound += cl.window
		}
		// Sized to every request the scheduler can have outstanding, so
		// a waiter never blocks handing over its verdict.
		s.verdicts = make(chan verdictMsg, bound)
	}
	g.scheds[0].res.log = &frameLog{budget: 16 << 20}
	return nil
}

func (g *churnGen) close() {
	for _, s := range g.scheds {
		s.c.Close()
	}
}

func (g *churnGen) run(stop <-chan struct{}) {
	var wg sync.WaitGroup
	for _, s := range g.scheds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.run(stop)
		}()
	}
	wg.Wait()
}

func (g *churnGen) result() *genResult {
	out := &genResult{
		conns:  len(g.scheds),
		goodBW: churnClients * churnBandwidth / 8,
		badBW:  churnClients * churnBandwidth / 8,
	}
	for _, s := range g.scheds {
		out.absorb(&s.res, s.tap)
	}
	return out
}

func (s *churnSched) sampled(id uint64) bool {
	return s.traced && trace.Sampled(id, traceSample)
}

// issue OPENs a request for cl that was due at sched.
func (s *churnSched) issue(cl *churnClient, sched int64) {
	id := s.nextID
	s.nextID += s.idStep
	t0 := s.clk.now()
	ch, err := s.c.Open(coreID(id))
	t1 := s.clk.now()
	s.res.log.add(wire.OpOpen, id, 0)
	s.res.lateness = append(s.res.lateness, timed{t0, t0 - sched})
	q := &churnReq{rec: reqRec{id: id, good: cl.good, sched: sched, sent: t1}, client: cl}
	if err != nil {
		q.rec.outcome = outError
		s.res.reqs = append(s.res.reqs, q.rec)
		return
	}
	if s.sampled(id) {
		s.res.spans = append(s.res.spans, span{ID: id, Name: "wire.open", Parent: "request", Start: t0, End: t1})
	}
	cl.out = append(cl.out, q)
	s.waiters.Add(1)
	go func() {
		defer s.waiters.Done()
		r := <-ch
		s.verdicts <- verdictMsg{req: q, status: r.Status, at: s.clk.now()}
	}()
}

// settle records a verdict and frees the request's window slot.
func (s *churnSched) settle(v verdictMsg) {
	q := v.req
	q.rec.verdict, q.rec.outcome = v.at, outcomeOf(v.status)
	if v.stopped && q.rec.outcome == outError {
		q.rec.verdict, q.rec.outcome = 0, outPending
	}
	if q.rec.verdict != 0 && s.sampled(q.rec.id) {
		s.res.spans = append(s.res.spans, span{ID: q.rec.id, Name: "request", Start: q.rec.sched, End: q.rec.verdict})
	}
	s.res.reqs = append(s.res.reqs, q.rec)
	cl := q.client
	for i, o := range cl.out {
		if o == q {
			cl.out = append(cl.out[:i], cl.out[i+1:]...)
			break
		}
	}
}

func (s *churnSched) run(stop <-chan struct{}) {
	start := s.clk.now()
	rate := churnBandwidth / 8 / 1e9 // bytes per ns
	for _, cl := range s.clients {
		cl.next = start + int64(cl.rng.ExpFloat64()/cl.lambda*1e9)
		cl.tokens = 0
	}
	last := start
	for tick := int64(1); ; tick++ {
		select {
		case <-stop:
			s.finish()
			return
		default:
		}
		if d := time.Duration(start + tick*int64(churnTick) - s.clk.now()); d > 0 {
			time.Sleep(d)
		}
		now := s.clk.now()
		for drained := false; !drained; {
			select {
			case v := <-s.verdicts:
				s.settle(v)
			default:
				drained = true
			}
		}
		elapsed := float64(now - last)
		last = now
		for _, cl := range s.clients {
			for cl.next <= now {
				if len(cl.out) < cl.window {
					s.issue(cl, cl.next) // else the window is full: the arrival is dropped
				}
				cl.next += int64(cl.rng.ExpFloat64() / cl.lambda * 1e9)
			}
			cl.tokens = min(cl.tokens+rate*elapsed, 2*churnFrame)
			for cl.tokens >= churnFrame && len(cl.out) > 0 {
				q := cl.out[cl.rr%len(cl.out)]
				cl.rr++
				t0 := s.clk.now()
				if err := s.c.Credit(coreID(q.rec.id), churnFrame); err != nil {
					s.finish()
					return
				}
				t1 := s.clk.now()
				s.res.blocks = append(s.res.blocks, timed{t1, t1 - t0})
				s.res.log.add(wire.OpCredit, q.rec.id, churnFrame)
				if s.sampled(q.rec.id) {
					s.res.spans = append(s.res.spans, span{ID: q.rec.id, Name: "wire.credit", Parent: "request", Start: t0, End: t1})
				}
				s.res.sentBytes += churnFrame
				s.res.frames++
				cl.tokens -= churnFrame
			}
		}
		// A tick that ends a whole tick behind its slot means the
		// clients' buckets and arrivals are running late.
		if s.clk.now()-(start+tick*int64(churnTick)) > 100*int64(churnTick) {
			s.res.behind = true
		}
	}
}

// finish closes every outstanding request (they stay unresolved, not
// failed) and collects the verdicts, so no waiter outlives run.
func (s *churnSched) finish() {
	pending := make(map[*churnReq]bool)
	for _, cl := range s.clients {
		for _, q := range cl.out {
			pending[q] = true
			s.c.CloseChannel(coreID(q.rec.id))
		}
	}
	done := make(chan struct{})
	go func() {
		s.waiters.Wait()
		close(done)
	}()
	for {
		select {
		case v := <-s.verdicts:
			v.stopped = pending[v.req]
			s.settle(v)
		case <-done:
			for {
				select {
				case v := <-s.verdicts:
					v.stopped = pending[v.req]
					s.settle(v)
				default:
					return
				}
			}
		}
	}
}
