package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"speakup/internal/trace"
	"speakup/internal/wire"
)

// setupReps is how many times a live run starts thinnerd and connects
// the generator; setup_s is the median, and the last instance carries
// the measured traffic.
const setupReps = 31

// traceSample is the traced run's thinnerd -trace-sample rate.
const traceSample = 32

// Request outcomes as the generator saw them.
const (
	outPending uint8 = iota
	outAdmitted
	outEvicted
	outRejected
	outShed
	outError
)

func outcomeOf(s wire.Status) uint8 {
	switch s {
	case wire.StatusAdmitted:
		return outAdmitted
	case wire.StatusEvicted:
		return outEvicted
	case wire.StatusRejected:
		return outRejected
	case wire.StatusShed:
		return outShed
	}
	return outError
}

// reqRec is one request as the generator saw it. Times are the
// generator clock's nanoseconds.
type reqRec struct {
	id      uint64
	good    bool
	sched   int64 // when the request was due: its scheduled send
	sent    int64 // when the OPEN / GET call returned
	verdict int64 // when its verdict arrived (0: none)
	outcome uint8
}

// timed is one timestamped duration sample (ns).
type timed struct{ at, d int64 }

// span is one client-side span of the traced run, keyed by request id
// so it joins the front's /trace record of the same id.
type span struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// genResult is everything a generator recorded.
type genResult struct {
	reqs      []reqRec
	blocks    []timed // wire.Client.Credit call durations
	lateness  []timed // how far sends ran behind their schedule
	behind    bool    // the generator could not keep its schedule
	sentBytes int64   // payment bytes written successfully
	frames    int64   // CREDIT frames written
	conns     int     // connections held open to the front
	taps      []*tapConn
	log       *frameLog
	spans     []span
	// provisioned bandwidth per class (bytes/s), for good_share_ratio
	goodBW, badBW float64
}

// absorb merges what one connection's goroutine recorded.
func (g *genResult) absorb(r *genResult, tap *tapConn) {
	g.reqs = append(g.reqs, r.reqs...)
	g.blocks = append(g.blocks, r.blocks...)
	g.lateness = append(g.lateness, r.lateness...)
	g.spans = append(g.spans, r.spans...)
	g.behind = g.behind || r.behind
	g.sentBytes += r.sentBytes
	g.frames += r.frames
	g.taps = append(g.taps, tap)
	if r.log != nil {
		g.log = r.log
	}
}

// generator drives one live workload's traffic.
type generator interface {
	// connect opens the generator's connections to f (part of setup).
	connect(f *front) error
	// run drives traffic until stop closes, then returns once every
	// goroutine it started has exited.
	run(stop <-chan struct{})
	// close closes the connections.
	close()
	result() *genResult
}

// liveSpec describes one live workload.
type liveSpec struct {
	name     string
	wire     bool
	conns    int           // connections the generator holds, and its GOMAXPROCS
	capacity float64       // the origin's, in req/s (thinnerd -capacity)
	warm     time.Duration // traffic before the measured window
	tail     time.Duration // traffic after it, so late verdicts land
	newGen   func(seed int64, clk *clock, traced bool) generator
}

// liveRun is one measured live run.
type liveRun struct {
	spec     liveSpec
	traced   bool
	setupS   []float64
	a, b     scrape        // window edges
	gauges   []scrape      // scrapes inside the window, every 250 ms
	end      scrape        // after the generator stopped and the front drained
	genCPU   time.Duration // generator CPU over the window
	rssMB    float64
	gen      *genResult
	traces   map[uint64]traceRecord
	frontLog string
}

// windowStart and windowEnd are the generator-clock midpoints of the
// window's edge scrapes.
func (r *liveRun) windowStart() int64 { return (r.a.sent + r.a.recv) / 2 }
func (r *liveRun) windowEnd() int64   { return (r.b.sent + r.b.recv) / 2 }
func (r *liveRun) windowS() float64 {
	return float64(r.windowEnd()-r.windowStart()) / 1e9
}

func (r *liveRun) inWindow(t int64) bool {
	return t >= r.windowStart() && t <= r.windowEnd()
}

// delta is a counter's increase over the window.
func (r *liveRun) delta(name string) float64 { return r.b.get(name) - r.a.get(name) }

func runLive(spec liveSpec, bin string, seed int64, seconds int, traced bool) (*liveRun, error) {
	args := []string{"-capacity", fmt.Sprint(spec.capacity)}
	if traced {
		args = append(args, "-trace-sample", fmt.Sprint(traceSample))
	}
	run := &liveRun{spec: spec, traced: traced}
	var (
		f   *front
		g   generator
		clk *clock
	)
	for i := 0; i < setupReps; i++ {
		clk = newClock()
		start := time.Now()
		var err error
		f, err = startFront(bin, args, spec.wire)
		if err != nil {
			return nil, err
		}
		g = spec.newGen(seed, clk, traced)
		if err := g.connect(f); err != nil {
			f.stop()
			return nil, fmt.Errorf("%s: generator connect: %w\nthinnerd log:\n%s", spec.name, err, f.log.String())
		}
		run.setupS = append(run.setupS, time.Since(start).Seconds())
		if i < setupReps-1 {
			g.close()
			f.stop()
		}
	}
	err := run.drive(f, g, clk, seconds)
	g.close()
	run.rssMB = f.stop()
	run.frontLog = f.log.String()
	run.gen = g.result()
	if err != nil {
		return nil, fmt.Errorf("%s: %w\nthinnerd log:\n%s", spec.name, err, run.frontLog)
	}
	return run, nil
}

// drive runs the traffic through warm-up, the measured window, and
// the tail, scraping the front from outside as it goes.
func (r *liveRun) drive(f *front, g generator, clk *clock, seconds int) error {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.run(stop)
	}()
	halt := func() {
		select {
		case <-stop:
		default:
			close(stop)
		}
		<-done
	}
	defer halt()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r.traces = make(map[uint64]traceRecord)
	pollTrace := func() error {
		if !r.traced {
			return nil
		}
		recs, err := f.scrapeTrace(ctx, 1024)
		for _, rec := range recs {
			// An admitted id's late CREDITs settle again as an orphan;
			// keep the record of the request itself.
			if old, ok := r.traces[rec.ID]; ok && strings.HasPrefix(old.Verdict, "admit") {
				continue
			}
			r.traces[rec.ID] = rec
		}
		return err
	}
	sleep := func(d time.Duration) error {
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
			time.Sleep(min(250*time.Millisecond, time.Until(deadline)))
			if !f.alive() {
				return fmt.Errorf("thinnerd exited mid-run")
			}
			if err := pollTrace(); err != nil {
				return err
			}
		}
		return nil
	}

	if err := sleep(r.spec.warm); err != nil {
		return err
	}
	var err error
	genA := selfCPU()
	if r.a, err = f.scrapeMetrics(clk); err != nil {
		return err
	}
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for time.Now().Before(deadline) {
		if err := sleep(min(250*time.Millisecond, time.Until(deadline))); err != nil {
			return err
		}
		if time.Until(deadline) > 50*time.Millisecond {
			s, err := f.scrapeMetrics(clk)
			if err != nil {
				return err
			}
			r.gauges = append(r.gauges, s)
		}
	}
	if r.b, err = f.scrapeMetrics(clk); err != nil {
		return err
	}
	r.genCPU = selfCPU() - genA
	if err := sleep(r.spec.tail); err != nil {
		return err
	}
	halt()
	// Let bytes already in the sockets land before the final counters.
	time.Sleep(300 * time.Millisecond)
	if r.end, err = f.scrapeMetrics(clk); err != nil {
		return err
	}
	return pollTrace()
}

// checks is the outcome of the output checks run on every live run.
type checks struct {
	attempted int64
	failed    int64
	notes     []string
}

func (c *checks) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// verify runs the outside-in output checks: per-request outcomes,
// exactly one verdict per request, client admissions against the
// front's served delta, and byte conservation against what the client
// sent.
func (r *liveRun) verify() checks {
	var c checks
	g := r.gen
	opened := make(map[uint64]bool, len(g.reqs))
	var failedReqs int64
	for _, q := range g.reqs {
		opened[q.id] = true
		if q.outcome == outError || q.outcome == outRejected {
			failedReqs++
		}
	}
	c.attempted += int64(len(g.reqs))
	if failedReqs > 0 {
		c.failed += failedReqs
		c.notes = append(c.notes, fmt.Sprintf("%d requests failed (transport or protocol error, or a duplicate id)", failedReqs))
	}
	// Exactly one verdict per OPENed channel, and none for channels
	// the generator never opened.
	var dups, strays int64
	for _, t := range g.taps {
		for id, n := range t.eventCounts() {
			switch {
			case !opened[id]:
				strays++
			case n > 1:
				dups++
			}
		}
	}
	if dups+strays > 0 {
		c.failed += dups + strays
		c.notes = append(c.notes, fmt.Sprintf("%d channels got duplicate verdicts, %d events for unopened channels", dups, strays))
	}

	// Client admissions in the window against the front's served
	// delta. Each edge scrape read the counter somewhere between its
	// send and receive, and at most admitSlack admissions can be
	// served but not yet delivered at any instant.
	const admitSlack = 2
	countBy := func(t int64) (n int64) {
		for _, q := range g.reqs {
			if q.outcome == outAdmitted && q.verdict <= t {
				n++
			}
		}
		return n
	}
	served := int64(r.delta("speakup_served_total"))
	lo := countBy(r.b.sent) - countBy(r.a.recv) - admitSlack
	hi := countBy(r.b.recv) - countBy(r.a.sent) + admitSlack
	c.check(served >= lo && served <= hi,
		"front served %d in the window, client saw between %d and %d admissions", served, lo+admitSlack, hi-admitSlack)

	credited := r.end.get("speakup_ingest_bytes_total")
	c.check(credited <= float64(g.sentBytes),
		"front credited %.0f bytes, client sent only %d", credited, g.sentBytes)
	settled := r.end.get("speakup_paid_bytes_total") + r.end.get("speakup_wasted_bytes_total")
	c.check(settled <= credited,
		"paid+wasted %.0f exceeds credited %.0f", settled, credited)
	c.check(!g.behind, "generator fell behind its schedule")
	if g.goodBW > 0 {
		var good int
		for _, q := range g.reqs {
			if q.good && q.outcome == outAdmitted && r.inWindow(q.verdict) {
				good++
			}
		}
		c.check(good >= 1000, "only %d good requests admitted in the window (need 1000 for a p99)", good)
	}
	return c
}

// liveMetrics computes every metric a live run yields. End-to-end and
// per-layer names share one map; the caller picks the set to print.
func (r *liveRun) liveMetrics() map[string]float64 {
	m := make(map[string]float64)
	g := r.gen
	w := r.windowS()
	served := r.delta("speakup_served_total")
	cpu := (r.b.cpu - r.a.cpu).Seconds()
	ingest := r.delta("speakup_ingest_bytes_total")

	m["setup_s"] = median(r.setupS)
	m["rss_mb"] = r.rssMB
	m["admit_per_s"] = served / w
	m["server_cpu_us_per_admit"] = ratio(cpu*1e6, served)

	// Per-request samples whose verdict landed in the window, in
	// verdict order. The workload's wait is its good class's when it
	// has one.
	var win []reqRec
	for _, q := range g.reqs {
		if q.outcome == outAdmitted && r.inWindow(q.verdict) {
			win = append(win, q)
		}
	}
	slices.SortFunc(win, func(a, b reqRec) int { return cmp.Compare(a.verdict, b.verdict) })
	var goodWait, allWait, http []float64
	var admits, goodAdmits float64
	for _, q := range win {
		admits++
		wait := float64(q.verdict-q.sched) / 1e6
		allWait = append(allWait, wait)
		if q.good {
			goodAdmits++
			goodWait = append(goodWait, wait)
		}
		if !r.spec.wire {
			http = append(http, wait*1e3)
		}
	}
	waits := allWait
	if g.goodBW > 0 {
		waits = goodWait
		m["good_wait_p50_ms"] = quantile(goodWait, 0.5)
		m["good_wait_p99_ms"] = quantile(goodWait, 0.99)
		m["good_share_ratio"] = ratio(goodAdmits/admits, g.goodBW/(g.goodBW+g.badBW))
		// Good requests due in the window: served by the end of the
		// tail, over issued (arrivals refused by a full window are not
		// issued).
		var issued, ok float64
		for _, q := range g.reqs {
			if q.good && r.inWindow(q.sched) {
				issued++
				if q.outcome == outAdmitted {
					ok++
				}
			}
		}
		m["good_served_frac"] = ratio(ok, issued)
	}
	m["wait_p50_ms"] = groupQuantile(waits, 0.5)
	m["wait_p90_ms"] = groupQuantile(waits, 0.9)
	if !r.spec.wire {
		m["req_p50_us"] = quantile(http, 0.5)
		m["req_p99_us"] = quantile(http, 0.99)
	}
	if g.frames > 0 {
		m["ingest_gbit_per_s"] = ingest * 8 / w / 1e9
		m["ingest_gb_per_cpu_s"] = ratio(ingest/1e9, cpu)
	}

	// gen
	var late []float64
	for _, s := range g.lateness {
		if r.inWindow(s.at) {
			late = append(late, float64(s.d)/1e6)
		}
	}
	m["gen.lateness_ms_p99"] = quantile(late, 0.99)
	m["gen.cpu_s"] = r.genCPU.Seconds()
	m["gen.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	m["gen.conns"] = float64(g.conns)
	m["thinnerd.gomaxprocs"] = r.b.get("speakup_gomaxprocs")

	// wire
	if r.spec.wire {
		m["wire.frames_per_s"] = r.delta("speakup_wire_frames_total") / w
		var blocks, otv []float64
		for _, s := range g.blocks {
			if r.inWindow(s.at) {
				blocks = append(blocks, float64(s.d)/1e3)
			}
		}
		for _, q := range g.reqs {
			if q.outcome != outPending && q.outcome != outError && r.inWindow(q.verdict) {
				otv = append(otv, float64(q.verdict-q.sent)/1e6)
			}
		}
		m["wire.credit_block_us_p50"] = quantile(blocks, 0.5)
		m["wire.credit_block_us_p99"] = quantile(blocks, 0.99)
		m["wire.open_to_verdict_ms_p50"] = quantile(otv, 0.5)
		m["wire.open_to_verdict_ms_p99"] = quantile(otv, 0.99)
	}

	// core, from the front's own counters
	admitted := r.delta("speakup_admitted_total")
	m["core.auctions_per_s"] = r.delta("speakup_auctions_total") / w
	m["core.direct_admit_frac"] = ratio(r.delta("speakup_admitted_direct_total"), admitted)
	m["core.evicted_per_s"] = r.delta("speakup_evicted_total") / w
	var contenders, price []float64
	for _, s := range r.gauges {
		contenders = append(contenders, s.get("speakup_contenders"))
		price = append(price, s.get("speakup_going_price_bytes")/1e3)
	}
	m["core.contenders_p50"] = median(contenders)
	m["core.going_price_kb_p50"] = median(price)
	m["core.open_channels_end"] = r.b.get("speakup_open_channels")
	m["core.settled_bytes_frac"] = ratio(
		r.end.get("speakup_paid_bytes_total")+r.end.get("speakup_wasted_bytes_total"),
		r.end.get("speakup_ingest_bytes_total"))
	m["thinnerd.cpu_util"] = cpu / w
	m["origin.util"] = served / w / r.spec.capacity
	return m
}

// traceMetrics joins the traced run's client spans with the front's
// /trace records of the same ids.
func (r *liveRun) traceMetrics() map[string]float64 {
	m := make(map[string]float64)
	g := r.gen
	var srvWait, clientGap, cover, lost, gap []float64
	for _, q := range g.reqs {
		if q.outcome != outAdmitted || !trace.Sampled(q.id, traceSample) {
			continue
		}
		if g.goodBW > 0 && !q.good {
			continue // the good class is the one whose wait matters
		}
		rec, ok := r.traces[q.id]
		if !ok || !strings.HasPrefix(rec.Verdict, "admit") || rec.ArriveNS == 0 {
			continue
		}
		client := float64(q.verdict-q.sched) / 1e6
		srvWait = append(srvWait, rec.WaitMS)
		open := float64(q.sent-q.sched) / 1e6
		clientGap = append(clientGap, client-rec.WaitMS-open)
		cover = append(cover, ratio(rec.WaitMS+open, client))
		lost = append(lost, float64(rec.AuctionsLost))
	}
	for _, rec := range r.traces {
		if rec.Credits > 1 {
			gap = append(gap, float64(rec.LastCreditNS-rec.FirstCreditNS)/float64(rec.Credits-1)/1e6)
		}
	}
	m["trace.records"] = float64(len(srvWait))
	m["trace.wait_to_admit_ms_p50"] = quantile(srvWait, 0.5)
	m["trace.wait_to_admit_ms_p99"] = quantile(srvWait, 0.99)
	m["trace.client_gap_ms_p50"] = quantile(clientGap, 0.5)
	m["trace.blocking_cover_frac"] = median(cover)
	m["trace.rounds_lost_p50"] = median(lost)
	m["trace.credit_gap_ms_p99"] = quantile(gap, 0.99)
	m["trace.drops"] = r.end.get("speakup_trace_drops_total")
	return m
}

// writeSpans writes the traced run's client spans as NDJSON under dir.
func (r *liveRun) writeSpans(dir string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.ndjson", r.spec.name, seed))
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range r.gen.spans {
		enc.Encode(s)
	}
	return path, os.WriteFile(path, b.Bytes(), 0o644)
}
