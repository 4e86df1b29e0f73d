package wire

import (
	"net"
	"testing"
	"time"

	"speakup/internal/core"
)

// stubBackend is a deterministic Backend over a bare BidTable: the
// test, not an auction, decides when each held request settles.
type stubBackend struct {
	bt  *core.BidTable
	now time.Duration
}

func (b *stubBackend) Arrive(id core.RequestID, w any) core.ArriveVerdict {
	if !b.bt.SetWaiter(id, w) {
		return core.ArriveDuplicate
	}
	b.bt.MarkEligible(id, b.now)
	return core.ArriveOK
}

func (b *stubBackend) Channel(id core.RequestID) *core.PayChan { return b.bt.Channel(id, b.now) }

func (b *stubBackend) ReleaseWaiter(id core.RequestID, w any) { b.bt.DropWaiter(id, w) }

func (b *stubBackend) Now() time.Duration { return b.now }

// settle settles id's channel and hands its waiter, if one is still
// registered, the verdict — what the front's admit and evict do.
func (b *stubBackend) settle(id core.RequestID, admit bool) {
	final, body := core.ChanEvicted, []byte(nil)
	if admit {
		final, body = core.ChanAdmitted, []byte("ok")
	}
	b.bt.Remove(id, final)
	if w, ok := b.bt.TakeWaiter(id).(core.Waiter); ok {
		w.Deliver(body)
	}
}

// newTestConn returns a conn whose reader the test drives by hand
// through a Decoder; its events stay queued in c.out for the test to
// drain (no writer goroutine runs).
func newTestConn(t *testing.T, be Backend) *conn {
	t.Helper()
	nc, peer := net.Pipe()
	t.Cleanup(func() {
		nc.Close()
		peer.Close()
	})
	return newConn(NewServer(be, ServerConfig{EventQueue: 1 << 12}), nc)
}

// TestConnStateBounded drives one connection through many OPEN→verdict
// cycles — admissions, evictions, CLOSEs, pay-only channels, duplicate
// OPENs, and CREDITs landing after the verdict — and checks that the
// connection's channel map tracks the live channels, not the requests
// served, while every OPEN still gets exactly its verdict events.
func TestConnStateBounded(t *testing.T) {
	const (
		cycles    = 10000
		lag       = 16 // a request's verdict trails its OPEN by lag cycles
		orphanTTL = 8 * time.Millisecond
	)
	be := &stubBackend{bt: core.NewBidTable(8)}
	c := newTestConn(t, be)
	dec := &Decoder{}
	feed := func(frames ...[]byte) {
		for _, f := range frames {
			if err := dec.Feed(f, c); err != nil {
				t.Fatal(err)
			}
		}
	}
	pay := make([]byte, 64)
	want := make(map[uint64]int) // verdict events owed per id
	got := make(map[uint64]int)
	maxLen := 0
	for i := 0; i < cycles+lag; i++ {
		be.now += time.Millisecond
		if i < cycles {
			id := uint64(i + 1)
			switch i % 6 {
			case 0, 1: // paid contender, admitted (0) or evicted (1)
				feed(frame(OpOpen, id, nil), frame(OpCredit, id, pay))
				want[id] = 1
			case 2: // abandoned: CLOSE before its verdict, so none is owed
				feed(frame(OpOpen, id, nil), frame(OpCredit, id, pay), frame(OpClose, id, nil))
			case 3: // pay-only: never OPENed, evicted by the orphan sweep
				feed(frame(OpCredit, id, pay))
			case 4: // duplicate OPEN: REJECT now, admission later
				feed(frame(OpOpen, id, nil), frame(OpOpen, id, nil))
				want[id] = 2
			case 5: // OPEN that never pays, evicted
				feed(frame(OpOpen, id, nil))
				want[id] = 1
			}
		}
		if j := i - lag; j >= 0 && j < cycles && j%6 != 3 {
			id := uint64(j + 1)
			be.settle(core.RequestID(id), j%6 == 0 || j%6 == 4)
			if j%6 <= 1 {
				// The payer's stream was still in flight: it lands after
				// the verdict and resurrects an orphan channel.
				feed(frame(OpCredit, id, pay))
			}
		}
		for _, id := range be.bt.DueOrphans(nil, be.now-orphanTTL) {
			be.settle(id, false)
		}
		for drained := false; !drained; {
			select {
			case ev := <-c.out:
				got[ev.ch]++
			default:
				drained = true
			}
		}
		maxLen = max(maxLen, len(c.chans))
	}

	// Without retirement the map would hold every id ever seen.
	if bound := 2 * minRetireAt; maxLen > bound {
		t.Fatalf("conn held %d channel entries after %d requests, want <= %d", maxLen, cycles, bound)
	}
	for id, n := range want {
		if got[id] != n {
			t.Fatalf("id %d: %d verdict events, want %d", id, got[id], n)
		}
	}
	for id, n := range got {
		if want[id] == 0 {
			t.Fatalf("id %d: %d unexpected events", id, n)
		}
	}
	// Once every verdict is in and the last orphans settle, one more
	// pass leaves nothing behind.
	be.now += orphanTTL
	for _, id := range be.bt.DueOrphans(nil, be.now) {
		be.settle(id, false)
	}
	c.retire()
	if len(c.chans) != 0 {
		t.Fatalf("%d entries survive a pass after every channel settled", len(c.chans))
	}
}

// TestWireCreditAllocs is the wire ingest path's zero-alloc fence:
// decoding a batch of CREDIT frames into a connection whose channels
// are cached and active must not allocate (the per-chunk cost the
// HTTP /pay path is fenced on by TestFrontPayCreditAllocs).
func TestWireCreditAllocs(t *testing.T) {
	be := &stubBackend{bt: core.NewBidTable(8)}
	c := newTestConn(t, be)
	dec := &Decoder{}
	var batch []byte
	for id := uint64(1); id <= 64; id++ {
		batch = append(batch, frame(OpCredit, id, make([]byte, 1024))...)
	}
	// Warm up: OPEN each channel and resolve it with a first credit.
	for id := uint64(1); id <= 64; id++ {
		if err := dec.Feed(frame(OpOpen, id, nil), c); err != nil {
			t.Fatal(err)
		}
	}
	if err := dec.Feed(batch, c); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if err := dec.Feed(batch, c); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("wire credit path allocates %.1f/op, want 0", avg)
	}
	if n := be.bt.TotalCredited(); n != 202*64*1024 {
		t.Fatalf("credited %d bytes, want %d", n, 202*64*1024)
	}
}
