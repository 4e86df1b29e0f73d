package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"speakup/internal/core"
	"speakup/internal/web"
	"speakup/internal/wire"
)

// The in-process replays time the layers that have no boundary
// outside the front, each at the sizes the live run reached.
// testing.Benchmark picks the iteration count; every replay reports
// ns/op and allocs/op.

// nopSink discards decoded frames; wire.Decoder counts them itself.
type nopSink struct{}

func (nopSink) Open(uint64)              {}
func (nopSink) Credit(uint64, int, bool) {}
func (nopSink) Close(uint64)             {}

// replayDecode feeds a recorded client→server byte stream through
// wire.Decoder.Feed in 256 KB reads (the front's read-buffer size)
// and reports ns and allocs per frame.
func replayDecode(stream []byte, frames int) (nsPerFrame, allocsPerFrame float64, err error) {
	const readBuf = 256 << 10
	var ferr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var d wire.Decoder
			for off := 0; off < len(stream); off += readBuf {
				if err := d.Feed(stream[off:min(off+readBuf, len(stream))], nopSink{}); err != nil {
					ferr = err
					return
				}
			}
			if d.Frames() != uint64(frames) {
				ferr = fmt.Errorf("decoder replay: %d frames decoded, %d recorded", d.Frames(), frames)
				return
			}
		}
	})
	if ferr != nil {
		return 0, 0, ferr
	}
	return float64(r.NsPerOp()) / float64(frames), float64(r.AllocsPerOp()) / float64(frames), nil
}

// eligibleTable builds a bid table of n eligible channels with spread
// balances.
func eligibleTable(n int) (*core.BidTable, []*core.PayChan) {
	bt := core.NewBidTable(0)
	pcs := make([]*core.PayChan, n)
	for i := range pcs {
		id := core.RequestID(i + 1)
		pcs[i] = bt.Channel(id, 0)
		pcs[i].Credit(int64(i), 0)
		bt.MarkEligible(id, 0)
	}
	return bt, pcs
}

// replayCredit times PayChan.Credit with GOMAXPROCS concurrent payers
// spread over n channels: the per-chunk ingest path.
func replayCredit(n int) (ns, allocs float64) {
	_, pcs := eligibleTable(n)
	var seq atomic.Uint64
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			x := seq.Add(1) * 0x9E3779B97F4A7C15
			now := time.Duration(0)
			for pb.Next() {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				now += time.Microsecond
				pcs[x%uint64(len(pcs))].Credit(floodFrame, now)
			}
		})
	})
	return float64(r.NsPerOp()), float64(r.AllocsPerOp())
}

// replayWinner times BidTable.Winner over n contenders while one
// payer credits continuously (the dirty stacks stay busy), crediting
// one channel per iteration so every call drains real work.
func replayWinner(n int) (ns, allocs float64) {
	bt, pcs := eligibleTable(n)
	var halt atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		x := uint64(88172645463325252)
		now := time.Duration(0)
		for i := 0; !halt.Load(); i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			now += time.Microsecond
			pcs[x%uint64(len(pcs))].Credit(churnFrame, now)
			if i%256 == 0 {
				runtime.Gosched()
			}
		}
	}()
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		now := time.Duration(0)
		for i := 0; i < b.N; i++ {
			now += time.Microsecond
			pcs[i%len(pcs)].Credit(churnFrame, now)
			bt.Winner()
		}
	})
	halt.Store(true)
	wg.Wait()
	return float64(r.NsPerOp()), float64(r.AllocsPerOp())
}

// replaySweep times one timeout-sweep tick (DueOrphans + DueInactive,
// nothing due) over n channels.
func replaySweep(n int) (ns, allocs float64) {
	bt := core.NewBidTable(0)
	bt.SetInactivityTimeout(time.Hour)
	const farFuture = time.Duration(1 << 62) // never comes due
	for i := 0; i < n; i++ {
		id := core.RequestID(i + 1)
		bt.Credit(id, int64(i), 0)
		bt.MarkEligible(id, 0)
		bt.Credit(id, 0, farFuture)
	}
	buf := make([]core.RequestID, 0, 64)
	now := time.Duration(0)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			now += time.Second
			buf = bt.DueOrphans(buf[:0], now-10*time.Second)
			buf = bt.DueInactive(buf, now, now-time.Hour)
		}
	})
	return float64(r.NsPerOp()), float64(r.AllocsPerOp())
}

// sinkWriter is a reusable http.ResponseWriter that keeps only the
// status, so the replay times the handler and not a recorder.
type sinkWriter struct {
	h    http.Header
	code int
}

func (w *sinkWriter) Header() http.Header { return w.h }
func (w *sinkWriter) WriteHeader(c int) {
	if w.code == 0 {
		w.code = c
	}
}
func (w *sinkWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return len(b), nil
}

// replayServe times web.Front.ServeHTTP for GET /request with an
// instant origin. Each call is a direct admission; between calls the
// replay waits for the admission's origin goroutine to hand the
// origin back, and calls that still found it busy (402) are not
// counted. allocs include the admission's own goroutine.
func replayServe(iters int) (ns, allocs float64, err error) {
	body := []byte("ok\n")
	front := web.NewFront(web.OriginFunc(func(core.RequestID) ([]byte, error) { return body, nil }), web.Config{})
	defer front.Close()
	const distinct = 512
	reqs := make([]*http.Request, distinct)
	for i := range reqs {
		reqs[i], err = http.NewRequest(http.MethodGet, fmt.Sprintf("/request?id=%d", i+1), nil)
		if err != nil {
			return 0, 0, err
		}
	}
	w := &sinkWriter{h: make(http.Header)}
	idle := func() {
		for j := 0; j < 4; j++ {
			runtime.Gosched()
		}
		front.ThinnerConfig() // takes the control lock the origin goroutine releases
	}
	var total time.Duration
	var admitted int
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < iters; i++ {
		clear(w.h)
		w.code = 0
		t0 := time.Now()
		front.ServeHTTP(w, reqs[i%distinct])
		d := time.Since(t0)
		if w.code == http.StatusOK {
			total += d
			admitted++
		}
		idle()
	}
	runtime.ReadMemStats(&ms1)
	if admitted < iters/2 {
		return 0, 0, fmt.Errorf("serve replay: only %d of %d calls admitted directly", admitted, iters)
	}
	return float64(total) / float64(admitted), float64(ms1.Mallocs-ms0.Mallocs) / float64(iters), nil
}
