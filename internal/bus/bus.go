// Package bus provides the communication substrate connecting OASIS
// services: synchronous calls (the RPC side of the paper's extended RPC
// system, §6.2.1) and asynchronous event notification, with one seam
// (LinkPolicy) through which a fault plane fails and delays links so
// that the heartbeat and event-horizon experiments of §4.10 and §6.8
// run deterministically on a virtual clock.
//
// This stands in for the ANSAware RPC runtime the dissertation used; the
// behaviours that matter to the architecture — independent service
// failure, message loss, delayed notification — are all reproducible.
//
// Concurrency: the peer/remote table is read-mostly and sits behind an
// RWMutex; the message counters are expvar entries (Vars): dedicated
// Ints for the notify/heartbeat/dropped counts, an expvar.Map for the
// per-op call counts; the delayed-notification queue is a min-heap
// ordered by (due, seq) behind its own mutex. Lock order: every mutex
// here is a leaf — no bus code path acquires one while holding another,
// and endpoints are always invoked with no bus lock held.
package bus

import (
	"container/heap"
	"errors"
	"expvar"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oasis/internal/clock"
	"oasis/internal/event"
)

// Endpoint is a service attached to the network.
type Endpoint interface {
	// Call handles a synchronous request.
	Call(from, op string, arg any) (any, error)
	// Deliver receives an asynchronous event notification.
	Deliver(n event.Notification)
}

// BatchEndpoint is an Endpoint that can accept a burst of notifications
// in one call. The batch path (StartBatch/EndBatch) uses it when
// available and falls back to per-note Deliver otherwise; notes arrive
// in the same order either way.
type BatchEndpoint interface {
	Endpoint
	DeliverBatch(notes []event.Notification)
}

// ErrUnreachable is returned for calls over a failed link or to an
// unregistered peer.
var ErrUnreachable = errors.New("bus: peer unreachable")

// Verdict is a link policy's treatment of one notification: drop it,
// deliver Copies copies (1 is normal; 2 models duplication), and add
// Delay to its delivery time (a random component yields reordering,
// because the delay queue is ordered by due time).
type Verdict struct {
	Drop   bool
	Copies int
	Delay  time.Duration
}

// LinkPolicy lets a fault-injection plane (internal/fault) interpose on
// every link. Notify is consulted once per asynchronous notification at
// send time and may consume randomness; Blocked is a pure query — is
// the link severed right now? — consulted for synchronous calls and
// again when a delayed notification comes due, so a message queued
// before a partition does not slip across it.
type LinkPolicy interface {
	Notify(from, to string) Verdict
	Blocked(from, to string) bool
}

type queued struct {
	from string
	to   string
	n    event.Notification
	due  time.Time
	seq  uint64
}

// notifyHeap is a min-heap of delayed notifications ordered by
// (due, seq): Flush pops due messages already sorted instead of
// re-sorting the whole queue on every call.
type notifyHeap []queued

func (h notifyHeap) Len() int { return len(h) }
func (h notifyHeap) Less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].seq < h[j].seq
}
func (h notifyHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *notifyHeap) Push(x any)   { *h = append(*h, x.(queued)) }
func (h *notifyHeap) Pop() any {
	old := *h
	n := len(old)
	q := old[n-1]
	*h = old[:n-1]
	return q
}

// CoalesceRule tells the batch path which notifications supersede
// earlier ones on the same session. Key returns a non-empty coalescing
// key for events that may coalesce (e.g. the record ref of a Modified
// event) and "" for everything else; Sticky reports a terminal event
// (permanently-false revocation) that later events with the same key
// must never replace. The bus stays ignorant of event vocabularies —
// the service layer installs the rule (§4.9.2).
type CoalesceRule struct {
	Key    func(ev event.Event) string
	Sticky func(ev event.Event) bool
}

// batchState buffers one source's in-flight notification burst,
// per destination in first-use order.
type batchState struct {
	depth  int
	order  []string
	byDest map[string][]event.Notification
}

// Network is an in-process message fabric with failure injection.
type Network struct {
	clk clock.Clock

	peersMu sync.RWMutex
	peers   map[string]Endpoint
	remotes map[string]remoteLink // names reachable over TCP (tcp.go)

	queueMu sync.Mutex
	queue   notifyHeap
	nextSeq uint64

	// The message counters, published through vars: the hot ones are
	// dedicated Ints, the per-op call counts a map keyed by op.
	vars                                      expvar.Map
	notifyCount, heartbeatCount, droppedCount expvar.Int
	calls                                     expvar.Map

	coalesce atomic.Pointer[CoalesceRule]
	policy   atomic.Pointer[policyBox]

	activeBatches atomic.Int64 // fast "any batch open?" check for Send
	batchMu       sync.Mutex
	batches       map[string]*batchState
}

// NewNetwork creates a network over the given clock.
func NewNetwork(clk clock.Clock) *Network {
	n := &Network{
		clk:     clk,
		peers:   make(map[string]Endpoint),
		batches: make(map[string]*batchState),
	}
	n.vars.Set("notify", &n.notifyCount)
	n.vars.Set("heartbeat", &n.heartbeatCount)
	n.vars.Set("dropped", &n.droppedCount)
	n.vars.Set("calls", &n.calls)
	n.vars.Set("pending_notes", expvar.Func(n.pendingNotes))
	return n
}

// Vars returns the network's counters, unpublished: "notify",
// "heartbeat", "dropped" (notifications lost in transit: sends the link
// policy dropped, a severed link included, or that named no routable
// peer, queued deliveries whose link or destination went away before
// they came due, and TCP encode failures — the transport-side account
// of the losses heartbeat sequence numbers detect, §4.10), "calls" (one
// count per op) and "pending_notes" (tcp.go).
func (n *Network) Vars() *expvar.Map { return &n.vars }

// Register attaches an endpoint under a unique name.
func (n *Network) Register(name string, ep Endpoint) error {
	n.peersMu.Lock()
	defer n.peersMu.Unlock()
	if _, dup := n.peers[name]; dup {
		return fmt.Errorf("bus: name %q already registered", name)
	}
	n.peers[name] = ep
	return nil
}

// PendingNotifications reports the notification-plane backlog inside
// the bus: delay-queued deliveries plus everything buffered in open
// batches. It is the transport half of the saturation signal a
// front-door (the HTTP gateway) sheds load on; the other half is the
// brokers' per-session outboxes (event.Broker.PendingNotifications).
func (n *Network) PendingNotifications() int {
	n.queueMu.Lock()
	pending := len(n.queue)
	n.queueMu.Unlock()
	n.batchMu.Lock()
	for _, st := range n.batches {
		for _, notes := range st.byDest {
			pending += len(notes)
		}
	}
	n.batchMu.Unlock()
	return pending
}

// policyBox wraps the LinkPolicy interface so it can sit in an
// atomic.Pointer.
type policyBox struct{ p LinkPolicy }

// SetLinkPolicy installs (or, with nil, removes) the link-layer fault
// policy. The fault plane (internal/fault) is the intended implementer.
func (n *Network) SetLinkPolicy(p LinkPolicy) {
	if p == nil {
		n.policy.Store(nil)
		return
	}
	n.policy.Store(&policyBox{p: p})
}

// linkSevered reports whether the installed policy blocks the link.
func (n *Network) linkSevered(from, to string) bool {
	box := n.policy.Load()
	return box != nil && box.p.Blocked(from, to)
}

// SetCoalesceRule installs the batch-coalescing rule (see CoalesceRule).
// Services sharing the network install the same rule; last write wins.
func (n *Network) SetCoalesceRule(r CoalesceRule) {
	n.coalesce.Store(&r)
}

// route resolves a destination name to a local endpoint or remote link.
func (n *Network) route(to string) (Endpoint, remoteLink) {
	n.peersMu.RLock()
	defer n.peersMu.RUnlock()
	return n.peers[to], n.remotes[to]
}

// Call performs a synchronous request from one peer to another; names
// added with AddRemote are reached over their TCP link.
func (n *Network) Call(from, to, op string, arg any) (any, error) {
	ep, remote := n.route(to)
	n.calls.Add(op, 1)
	if n.linkSevered(from, to) || (ep == nil && remote == nil) {
		return nil, fmt.Errorf("%w: %s -> %s", ErrUnreachable, from, to)
	}
	if ep == nil {
		return remote.call(from, to, op, arg)
	}
	return ep.Call(from, op, arg)
}

// Send delivers an event notification from one peer to another under
// the installed LinkPolicy's verdict: dropped (silently — exactly what
// heartbeats exist to detect), duplicated, or delayed (queued until
// Flush past the due time). While the sender has a batch open
// (StartBatch), immediate deliveries are buffered and flushed —
// coalesced — at EndBatch; the policy is still consulted here, at send
// time, except that a queued notification re-checks the link when it
// comes due.
func (n *Network) Send(from, to string, note event.Notification) {
	ep, remote := n.route(to)
	v := n.admit(from, to, ep != nil || remote != nil, note)
	for c := 0; c < v.Copies; c++ {
		n.sendOne(from, to, ep, remote, note, v.Delay)
	}
}

// admit counts one notification and returns the installed policy's
// treatment of it, with Copies 0 when it is lost here — to names no
// routable peer, or the policy drops it — and counted dropped. With no
// policy everything is delivered once, at once.
func (n *Network) admit(from, to string, routable bool, note event.Notification) Verdict {
	n.notifyCount.Add(1)
	if note.Heartbeat {
		n.heartbeatCount.Add(1)
	}
	v := Verdict{Copies: 1}
	if box := n.policy.Load(); box != nil && routable {
		v = box.p.Notify(from, to)
		v.Copies = max(v.Copies, 1)
	}
	if !routable || v.Drop {
		n.droppedCount.Add(1)
		v.Copies = 0
	}
	return v
}

// sendOne queues or delivers a single (possibly duplicated) copy.
func (n *Network) sendOne(from, to string, ep Endpoint, remote remoteLink, note event.Notification, d time.Duration) {
	if d > 0 {
		n.enqueueDelayed(from, to, note, d)
		return
	}
	if n.activeBatches.Load() > 0 && n.tryBuffer(from, to, note) {
		return
	}
	if ep == nil {
		n.notify(remote, from, to, []event.Notification{note})
		return
	}
	ep.Deliver(note)
}

// enqueueDelayed parks a notification on the delay queue until Flush
// finds it due.
func (n *Network) enqueueDelayed(from, to string, note event.Notification, d time.Duration) {
	n.queueMu.Lock()
	n.nextSeq++
	heap.Push(&n.queue, queued{from: from, to: to, n: note, due: n.clk.Now().Add(d), seq: n.nextSeq})
	n.queueMu.Unlock()
}

// StartBatch opens (or nests into) a notification batch for the named
// source: until the matching EndBatch, immediate sends from that source
// are buffered per destination. Revocation cascades and heartbeat ticks
// use this so a storm becomes one burst per destination instead of one
// delivery per record (§4.9.2 at scale).
func (n *Network) StartBatch(from string) {
	n.batchMu.Lock()
	st := n.batches[from]
	if st == nil {
		st = &batchState{byDest: make(map[string][]event.Notification)}
		n.batches[from] = st
		n.activeBatches.Add(1)
	}
	st.depth++
	n.batchMu.Unlock()
}

// EndBatch closes the source's batch; when the outermost nesting level
// closes, buffered notifications are coalesced per destination
// (consecutive same-key events collapse, last writer wins, sticky
// events are never replaced — see CoalesceRule) and delivered, via
// DeliverBatch where the endpoint supports it.
func (n *Network) EndBatch(from string) {
	n.batchMu.Lock()
	st := n.batches[from]
	if st == nil {
		n.batchMu.Unlock()
		return
	}
	st.depth--
	if st.depth > 0 {
		n.batchMu.Unlock()
		return
	}
	delete(n.batches, from)
	n.activeBatches.Add(-1)
	n.batchMu.Unlock()
	rule := n.coalesce.Load()
	for _, to := range st.order {
		n.deliverBatch(from, to, coalesceNotes(rule, st.byDest[to]))
	}
}

// tryBuffer appends the note to the sender's open batch, if any.
func (n *Network) tryBuffer(from, to string, note event.Notification) bool {
	n.batchMu.Lock()
	st := n.batches[from]
	if st == nil {
		n.batchMu.Unlock()
		return false
	}
	if _, seen := st.byDest[to]; !seen {
		st.order = append(st.order, to)
	}
	st.byDest[to] = append(st.byDest[to], note)
	n.batchMu.Unlock()
	return true
}

// deliverBatch hands a coalesced burst to one destination.
func (n *Network) deliverBatch(from, to string, notes []event.Notification) {
	if len(notes) == 0 {
		return
	}
	ep, remote := n.route(to)
	switch {
	case ep != nil:
		if be, ok := ep.(BatchEndpoint); ok {
			be.DeliverBatch(notes)
			return
		}
		for _, note := range notes {
			ep.Deliver(note)
		}
	case remote != nil:
		n.notify(remote, from, to, notes)
	default:
		// Destination vanished between Send and flush (e.g. CloseRemotes).
		n.droppedCount.Add(int64(len(notes)))
	}
}

// coalesceNotes collapses runs of superseded notifications per session:
// a note merges into the session's previous note when they carry the
// same coalescing key and contiguous sequence numbers. The survivor
// keeps the later payload (last writer wins) unless the earlier one is
// sticky (a permanent revocation), and always accounts the absorbed
// sequence numbers in Coalesced so loss detection stays exact (§4.10).
func coalesceNotes(rule *CoalesceRule, notes []event.Notification) []event.Notification {
	if rule == nil || rule.Key == nil || len(notes) < 2 {
		return notes
	}
	out := make([]event.Notification, 0, len(notes))
	lastBySess := make(map[uint64]int)
	for _, cur := range notes {
		key := ""
		if !cur.Heartbeat {
			key = rule.Key(cur.Event)
		}
		if idx, ok := lastBySess[cur.SessionID]; ok && key != "" {
			prev := &out[idx]
			if !prev.Heartbeat && prev.Seq+1 == cur.Seq && rule.Key(prev.Event) == key {
				if rule.Sticky == nil || !rule.Sticky(prev.Event) {
					prev.Event = cur.Event
					prev.RegID = cur.RegID
				}
				prev.Coalesced += 1 + cur.Coalesced
				prev.Seq = cur.Seq
				if cur.Horizon.After(prev.Horizon) {
					prev.Horizon = cur.Horizon
				}
				continue
			}
		}
		out = append(out, cur)
		lastBySess[cur.SessionID] = len(out) - 1
	}
	return out
}

// Flush delivers every queued notification whose due time has passed, in
// (due, seq) order. Simulations call this after advancing the clock. A
// due notification whose destination is no longer routable counts as
// dropped, not delivered.
func (n *Network) Flush() int {
	now := n.clk.Now()
	var due []queued
	n.queueMu.Lock()
	for len(n.queue) > 0 && !n.queue[0].due.After(now) {
		due = append(due, heap.Pop(&n.queue).(queued))
	}
	n.queueMu.Unlock()
	delivered := 0
	for _, q := range due {
		// Re-check the link at delivery time: a message queued before a
		// partition must not slip across it. (Blocked is a pure query, so
		// this consumes no policy randomness.)
		ep, remote := n.route(q.to)
		switch {
		case n.linkSevered(q.from, q.to) || ep == nil && remote == nil:
			n.droppedCount.Add(1)
		case ep != nil:
			ep.Deliver(q.n)
			delivered++
		default:
			n.notify(remote, q.from, q.to, []event.Notification{q.n})
			delivered++
		}
	}
	return delivered
}

// Count reports a message counter ("call:<op>", "notify", "heartbeat",
// "dropped") from Vars. The background-traffic experiment (E6) reads
// these.
func (n *Network) Count(kind string) int {
	m := &n.vars
	if op, ok := strings.CutPrefix(kind, "call:"); ok {
		m, kind = &n.calls, op
	}
	if c, ok := m.Get(kind).(*expvar.Int); ok {
		return int(c.Value())
	}
	return 0
}

// Sink returns an event.Sink that sends notifications from `from` to
// `to` over this network — used to subscribe a remote service to a
// broker while keeping failure injection in the path.
func (n *Network) Sink(from, to string) event.Sink {
	return event.SinkFunc(func(note event.Notification) { n.Send(from, to, note) })
}
