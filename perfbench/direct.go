package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"time"

	"speakup/internal/trace"
)

// directSpec is the direct-http workload: closed loop, one client on
// one keep-alive connection issuing GET /request back to back, no
// attack, an instant origin. Every admission is direct, so the auction
// and ingest layers idle; it is the only workload through net/http
// and the web handlers, and it checks the paper's promise that
// speak-up costs little when the server is not overloaded.
func directSpec() liveSpec {
	return liveSpec{
		name:     "direct-http",
		conns:    1,
		capacity: 1e9,
		warm:     time.Second,
		newGen: func(seed int64, clk *clock, traced bool) generator {
			return &directGen{clk: clk, seed: seed, traced: traced}
		},
	}
}

type directGen struct {
	clk    *clock
	seed   int64
	traced bool
	base   string
	client *http.Client
	res    genResult
	body   []byte // the first admitted response body; every later one must match
}

func (g *directGen) connect(f *front) error {
	g.base = "http://" + f.httpAddr
	g.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
	// Open the keep-alive connection the run will reuse.
	_, _, err := g.get("/healthz")
	return err
}

func (g *directGen) close() { g.client.CloseIdleConnections() }

func (g *directGen) get(path string) (int, []byte, error) {
	resp, err := g.client.Get(g.base + path)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// request runs one GET /request exchange: a 402 (the origin was still
// finishing the previous request) is followed by the re-issued
// &wait=1 GET, as the paper's client script does.
func (g *directGen) request(id uint64) reqRec {
	q := reqRec{id: id, good: true}
	q.sched = g.clk.now()
	status, body, err := g.get(fmt.Sprintf("/request?id=%d", id))
	if err == nil && status == http.StatusPaymentRequired {
		status, body, err = g.get(fmt.Sprintf("/request?id=%d&wait=1", id))
	}
	q.verdict = g.clk.now()
	q.sent = q.sched
	switch {
	case err != nil || status != http.StatusOK:
		q.outcome = outError
	case g.body == nil:
		g.body = body
		q.outcome = outAdmitted
	case bytes.Equal(body, g.body):
		q.outcome = outAdmitted
	default:
		q.outcome = outError
	}
	return q
}

func (g *directGen) run(stop <-chan struct{}) {
	id := idBase(g.seed)
	for {
		select {
		case <-stop:
			return
		default:
		}
		q := g.request(id)
		if g.traced && trace.Sampled(id, traceSample) {
			g.res.spans = append(g.res.spans, span{ID: id, Name: "http.get", Parent: "request", Start: q.sched, End: q.verdict})
		}
		g.res.reqs = append(g.res.reqs, q)
		id++
	}
}

func (g *directGen) result() *genResult {
	g.res.conns = 1
	return &g.res
}
