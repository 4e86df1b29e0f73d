package core

// Waiter is a transport-side sink for a held request's outcome. The
// HTTP front parks each held request in a buffered channel; other
// transports (the binary wire front) register a Waiter instead, and
// the front's admit/evict callbacks deliver through it.
type Waiter interface {
	// Deliver hands the waiter its outcome: the origin's response body
	// on admission, or nil on eviction. It is called at most once per
	// registration, after the front has taken the registration out of
	// the table, from the front's dispatch paths — possibly with the
	// control mutex held. Implementations must not block and must not
	// take a lock their transport holds while calling into the front
	// (Arrive, ReleaseWaiter), or the two can deadlock. A transport
	// that keeps per-request state should have Deliver only flag it
	// done and reclaim it from its own goroutine.
	Deliver(body []byte)
}

// ArriveVerdict is a front's answer to one transport-level request
// arrival. Each verdict maps onto the HTTP front's pinned status
// codes, so every transport surfaces identical semantics.
type ArriveVerdict int

const (
	// ArriveOK: the request is registered and contending (HTTP: the
	// held 200-to-be).
	ArriveOK ArriveVerdict = iota
	// ArriveDuplicate: a request with this id is already waiting
	// (HTTP 409 Conflict).
	ArriveDuplicate
	// ArriveShed: origin brownout — auctions are paused and the
	// arrival is refused with a retry hint (HTTP 503 + Retry-After).
	ArriveShed
)
