package event

import (
	"sort"
	"sync"
	"time"
)

// Handler consumes events delivered for one registration.
type Handler func(Event)

// GapHandler is invoked when the receiver detects that one or more
// notifications from a source have been lost or delayed (a sequence gap,
// §4.10); the argument is the source name.
type GapHandler func(source string)

// sourceID is a session or registration identifier qualified by the
// source that allocated it: each broker numbers its own, so keying a
// delivery stream by SessionID alone, or a handler by RegID alone, would
// let different sources collide.
type sourceID struct {
	source string
	id     uint64
}

// Receiver is the client-side event library of figure 6.1. It dispatches
// notifications to per-registration handlers, tracks per-source event
// horizons, detects sequence gaps, suppresses duplicated and stale
// notifications (a faulty link may deliver a notification twice, or
// after a resync already covered it).
type Receiver struct {
	onGap GapHandler

	mu          sync.Mutex
	srcHandlers map[sourceID]Handler // per (source, registration); 0 = any
	lastSeq     map[sourceID]uint64  // per (source, session)
	horizons    map[string]time.Time // per source
	silent      map[string]bool      // sources CheckLiveness reported, not heard from since
}

// NewReceiver creates a receiver; onGap (may be nil) is told of every
// sequence gap.
func NewReceiver(onGap GapHandler) *Receiver {
	return &Receiver{
		onGap:       onGap,
		srcHandlers: make(map[sourceID]Handler),
		lastSeq:     make(map[sourceID]uint64),
		horizons:    make(map[string]time.Time),
		silent:      make(map[string]bool),
	}
}

// HandleFrom installs a handler for a registration id scoped to one
// source, so that registration ids allocated independently by different
// brokers cannot collide. Registration id 0 — which no broker allocates
// — stands for any registration of the source that has no handler of
// its own.
func (r *Receiver) HandleFrom(source string, regID uint64, h Handler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.srcHandlers[sourceID{source, regID}] = h
}

// Deliver implements Sink.
func (r *Receiver) Deliver(n Notification) {
	k := sourceID{n.Source, n.SessionID}
	r.mu.Lock()
	last, seen := r.lastSeq[k]
	// A notification at or below the stream's high-water mark is a
	// duplicate (lossy links may copy) or predates a resync floor
	// (SetSessionFloor); its payload must not be re-applied. Its
	// horizon and liveness evidence are still honoured below — the
	// source is demonstrably alive.
	stale := seen && n.Seq <= last
	gap := false
	if !stale {
		// A coalescing transport collapses a run of superseded
		// notifications into one, reporting the collapsed count;
		// sequence numbers (Seq-Coalesced .. Seq) all count as
		// received (§4.10).
		if seen && n.Seq > last+1+n.Coalesced {
			gap = true
		}
		r.lastSeq[k] = n.Seq
	}
	if n.Horizon.After(r.horizons[n.Source]) {
		r.horizons[n.Source] = n.Horizon
	}
	delete(r.silent, n.Source)
	var h Handler
	if !stale && !n.Heartbeat {
		if h = r.srcHandlers[sourceID{n.Source, n.RegID}]; h == nil {
			h = r.srcHandlers[sourceID{n.Source, 0}]
		}
	}
	onGap := r.onGap
	r.mu.Unlock()

	// The payload is applied before the gap callback runs: it typically
	// triggers a resync, and a resync snapshot taken at the source
	// necessarily covers this notification (it was sent first) — so
	// snapshot-after-payload converges, while payload-after-snapshot
	// could roll a record back to a state the snapshot had already
	// superseded.
	if h != nil {
		h(n.Event)
	}
	if gap && onGap != nil {
		onGap(n.Source)
	}
}

// SetSessionFloor seals a delivery stream at seq: notifications on it
// numbered seq or lower are treated as stale and not dispatched. A
// resync snapshot taken at broker sequence s already reflects every
// update up to s, so in-flight copies of those notifications —
// delayed in the network across the resync — must not be re-applied
// on top of the fresher snapshot.
func (r *Receiver) SetSessionFloor(source string, sess, seq uint64) {
	k := sourceID{source, sess}
	r.mu.Lock()
	defer r.mu.Unlock()
	if seq > r.lastSeq[k] {
		r.lastSeq[k] = seq
	}
}

// ObserveSource seeds liveness tracking for a source from an
// out-of-band contact (e.g. a successful synchronous validation call):
// the source was demonstrably alive at t, so silence is measured from
// then even before the first notification arrives.
func (r *Receiver) ObserveSource(source string, t time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t.After(r.horizons[source]) {
		r.horizons[source] = t
	}
	delete(r.silent, source)
}

// Horizon returns the highest event-horizon timestamp seen from the
// source: the receiver is guaranteed to have seen every event from that
// source with an earlier timestamp (assuming no unresolved gap).
func (r *Receiver) Horizon(source string) (time.Time, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.horizons[source]
	return t, ok
}

// Sources lists every source the receiver tracks, sorted for
// deterministic iteration.
func (r *Receiver) Sources() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.horizons))
	for src := range r.horizons {
		out = append(out, src)
	}
	sort.Strings(out)
	return out
}

// CheckLiveness inspects each known source's horizon against the current
// time: if a source has been quiet past the allowance (the heartbeat
// period t plus slack), it is presumed failed and reported. A client can
// be certain of receiving an event within t of its generation, or of
// detecting that notification may have failed (§4.10).
func (r *Receiver) CheckLiveness(now time.Time, allowance time.Duration) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var failed []string
	for src, h := range r.horizons {
		if now.Sub(h) > allowance && !r.silent[src] {
			r.silent[src] = true
			failed = append(failed, src)
		}
	}
	sort.Strings(failed)
	return failed
}

var _ Sink = (*Receiver)(nil)
