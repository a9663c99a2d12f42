package event

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"oasis/internal/clock"
)

// Notification is the unit of delivery from a broker to a client session.
// Every notification carries a per-session sequence number, so the client
// can detect loss, and an event-horizon timestamp: a lower bound on the
// timestamps of events yet to be signalled by this source (§6.8.2).
type Notification struct {
	Source    string
	SessionID uint64
	Seq       uint64 // per-session sequence number (§4.10)
	Heartbeat bool   // true for pure heartbeats carrying no event
	RegID     uint64 // registration that matched (0 for heartbeats and SignalTo)
	Event     Event
	Horizon   time.Time
	// Coalesced counts earlier notifications on this session that this
	// one subsumes: a batching transport that collapses a run of
	// superseded notifications (bus.CoalesceRule) reports the collapsed
	// run here, so sequence numbers (Seq-Coalesced .. Seq) all count as
	// received and loss detection (§4.10) stays exact.
	Coalesced uint64
}

// Sink receives notifications on behalf of a client. Delivery transports
// (in-process, TCP) implement this; they may drop or delay, which the
// heartbeat protocol is designed to detect.
type Sink interface {
	Deliver(Notification)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Notification)

// Deliver implements Sink.
func (f SinkFunc) Deliver(n Notification) { f(n) }

// AdmissionFunc decides whether a client presenting the given opaque
// credentials may open a session (admission control, chapter 7). A nil
// AdmissionFunc admits everyone.
type AdmissionFunc func(credentials any) error

// VisibilityFunc decides whether a particular event instance may be
// notified to a particular session (per-instance policy, chapter 7).
// A nil VisibilityFunc makes every instance visible.
type VisibilityFunc func(session uint64, credentials any, ev Event) bool

// ErrNoSession is returned for operations on unknown or closed sessions.
var ErrNoSession = errors.New("event: no such session")

// BrokerOptions tune a broker's failure-detection and buffering
// behaviour; the paper stresses that each service chooses its own
// trade-offs (§4.10, §6.8.1).
type BrokerOptions struct {
	// RetainFor bounds how long pre-registration buffers event
	// occurrences before discarding them (§6.8.1).
	RetainFor time.Duration
	// RetainMax bounds the number of buffered occurrences.
	RetainMax int
	// Admission and Visibility install security policy hooks.
	Admission  AdmissionFunc
	Visibility VisibilityFunc
}

type registration struct {
	id       uint64
	session  uint64
	template Template
	pre      bool   // pre-registration: buffer, do not notify (§6.8.1)
	key      string // current index key (maintained under Broker.mu)
}

// session is one client's delivery stream. The broker-wide lock guards
// only the session table; per-stream state (sequence numbers, outbound
// queue) sits behind the session's own mutex so that
// concurrent Signal and Heartbeat calls serialise per session, not per
// broker.
type session struct {
	id          uint64
	sink        Sink
	credentials any

	mu       sync.Mutex
	nextSeq  uint64
	outbox   []Notification // prepared, not yet handed to the sink
	spare    []Notification // a delivered outbox, recycled as the next one
	draining bool           // a goroutine is flushing outbox in order
	closed   bool
}

// maxSpareOutbox bounds the outbox array a session keeps for reuse, so
// that one burst does not pin its peak for the session's life.
const maxSpareOutbox = 64

type buffered struct {
	ev    Event
	added time.Time
}

// Broker is the server-side event library of figure 6.1: it keeps a
// database of registrations, matches signalled events against them
// without knowing concrete event types, and notifies interested clients.
//
// Concurrency: the registration/session tables are read-mostly and sit
// behind an RWMutex; Signal and Heartbeat take only the read lock to
// snapshot their targets and deliver outside it. Event stamps and the
// source sequence live behind their own small mutex, and per-session
// sequence numbers are assigned under the session lock with delivery
// draining in assignment order, preserving the §4.10 loss-detection
// contract. Signal, SignalTo and Heartbeat order before they deliver:
// under stampMu they stamp (or read the horizon) and queue a
// notification on every target, so a heartbeat whose horizon passes an
// event's stamp is behind that event on each session both reach,
// however long one session's sink holds the signaller
// (TestHeartbeatWaitsBehindEvent).
// Registrations are indexed by event name — and, when the
// template's first parameter is a literal, by (name, literal) — so
// Signal matches only candidate registrations instead of scanning the
// whole database.
//
// Lock order: stampMu before Broker.mu before session.mu; no
// session.mu holder takes another lock. Sinks are always invoked with
// no broker, stamp or session lock held.
type Broker struct {
	name string
	clk  clock.Clock
	opts BrokerOptions

	mu       sync.RWMutex
	sessions map[uint64]*session
	regs     map[uint64]*registration
	index    map[string]map[uint64]*registration // indexKey -> regs
	nextSess uint64
	nextReg  uint64
	buffer   []buffered // recent occurrences for retrospective registration

	stampMu   sync.Mutex // guards eventSeq and lastStamp
	eventSeq  uint64
	lastStamp time.Time

	pending atomic.Int64 // notifications queued in outboxes and not yet taken
}

// NewBroker creates an event broker for the named service instance.
func NewBroker(name string, clk clock.Clock, opts BrokerOptions) *Broker {
	if opts.RetainMax <= 0 {
		opts.RetainMax = 4096
	}
	if opts.RetainFor <= 0 {
		opts.RetainFor = time.Minute
	}
	return &Broker{
		name:     name,
		clk:      clk,
		opts:     opts,
		sessions: make(map[uint64]*session),
		regs:     make(map[uint64]*registration),
		index:    make(map[string]map[uint64]*registration),
		// Session ids count up from this incarnation's clock reading, so
		// the streams of a service restarted under its old name are new
		// streams at every receiver, not replays of the old ones numbered
		// below its high-water marks (Receiver.Deliver).
		nextSess: uint64(clk.Now().UnixNano()),
	}
}

// indexKey computes the index bucket for a template: the event name,
// refined by the first parameter when it is a literal. Two values that
// render equally share a bucket; Template.Matches still decides, so
// collisions cost a comparison, never a missed match.
func indexKey(t Template) string {
	if len(t.Params) > 0 {
		p := t.Params[0]
		if !p.Wild && p.Var == "" {
			return t.Name + "\x00" + p.Lit.String()
		}
	}
	return t.Name
}

// indexAddLocked and indexRemoveLocked maintain the candidate index;
// caller holds b.mu for writing.
func (b *Broker) indexAddLocked(r *registration) {
	r.key = indexKey(r.template)
	bucket := b.index[r.key]
	if bucket == nil {
		bucket = make(map[uint64]*registration)
		b.index[r.key] = bucket
	}
	bucket[r.id] = r
}

func (b *Broker) indexRemoveLocked(r *registration) {
	if bucket, ok := b.index[r.key]; ok {
		delete(bucket, r.id)
		if len(bucket) == 0 {
			delete(b.index, r.key)
		}
	}
}

// OpenSession establishes a client session, applying admission control to
// the supplied credentials (§6.2.2). It returns the session identifier.
func (b *Broker) OpenSession(sink Sink, credentials any) (uint64, error) {
	if b.opts.Admission != nil {
		if err := b.opts.Admission(credentials); err != nil {
			return 0, fmt.Errorf("event: admission refused: %w", err)
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextSess++
	b.sessions[b.nextSess] = &session{id: b.nextSess, sink: sink, credentials: credentials}
	return b.nextSess, nil
}

// CloseSession ends a session and drops its registrations.
//
//oasislint:keep §6.2.1 session lifecycle (figure 6.1)
func (b *Broker) CloseSession(id uint64) error {
	b.mu.Lock()
	s, ok := b.sessions[id]
	if !ok {
		b.mu.Unlock()
		return ErrNoSession
	}
	delete(b.sessions, id)
	for rid, r := range b.regs {
		if r.session == id {
			b.indexRemoveLocked(r)
			delete(b.regs, rid)
		}
	}
	b.mu.Unlock()
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return nil
}

// Register records live interest in events matching the template and
// returns a registration id used to correlate notifications.
func (b *Broker) Register(sess uint64, t Template) (uint64, error) {
	return b.register(sess, t, false)
}

// PreRegister records interest in events the client may later want
// retrospectively (§6.8.1): matching occurrences are buffered at the
// source but not notified.
//
//oasislint:keep §6.8.1 retrospective registration
func (b *Broker) PreRegister(sess uint64, t Template) (uint64, error) {
	return b.register(sess, t, true)
}

func (b *Broker) register(sess uint64, t Template, pre bool) (uint64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.sessions[sess]; !ok {
		return 0, ErrNoSession
	}
	b.nextReg++
	r := &registration{id: b.nextReg, session: sess, template: t, pre: pre}
	b.regs[b.nextReg] = r
	b.indexAddLocked(r)
	return b.nextReg, nil
}

// Narrow replaces a registration's template with a more specific one as
// parameters become known (§6.8.1). The caller is responsible for the new
// template actually being narrower.
//
//oasislint:keep §6.8.1 retrospective registration
func (b *Broker) Narrow(regID uint64, t Template) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	r, ok := b.regs[regID]
	if !ok {
		return fmt.Errorf("event: no registration %d", regID)
	}
	b.indexRemoveLocked(r)
	r.template = t
	b.indexAddLocked(r)
	return nil
}

// RetroRegister converts a pre-registration into a live registration
// starting at the instant `since` in the past: buffered occurrences with
// timestamps in (since, now] that match the (possibly narrowed) template
// are notified immediately, and subsequent occurrences flow live
// (retrospective registration, §6.8.1).
//
//oasislint:keep §6.8.1 retrospective registration
func (b *Broker) RetroRegister(regID uint64, t Template, since time.Time) error {
	b.mu.Lock()
	r, ok := b.regs[regID]
	if !ok {
		b.mu.Unlock()
		return fmt.Errorf("event: no registration %d", regID)
	}
	if !r.pre {
		b.mu.Unlock()
		return fmt.Errorf("event: registration %d is not a pre-registration", regID)
	}
	b.indexRemoveLocked(r)
	r.template = t
	b.indexAddLocked(r)
	r.pre = false
	s := b.sessions[r.session]
	var replay []Event
	if s != nil {
		for _, buf := range b.buffer {
			if buf.ev.Time.After(since) && t.Matches(buf.ev) && b.visible(s, buf.ev) {
				replay = append(replay, buf.ev)
			}
		}
	}
	b.mu.Unlock()
	if len(replay) > 0 {
		horizon := b.horizon()
		for _, ev := range replay {
			b.enqueue(s, r.id, ev, false, horizon)
		}
		b.drain(s)
	}
	return nil
}

func (b *Broker) visible(s *session, ev Event) bool {
	if b.opts.Visibility == nil {
		return true
	}
	return b.opts.Visibility(s.id, s.credentials, ev)
}

// enqueue assigns the session's next sequence number to a notification
// and appends it to the outbox in the same hold of the session's lock,
// and drain delivers the outbox in order, so per-session delivery order
// always equals sequence order, even with concurrent signallers.
// Nothing is kept once the sink has the notification: a client that
// detects a gap (§4.10) recovers by resynchronising record state, not
// by asking for a replay.
func (b *Broker) enqueue(s *session, regID uint64, ev Event, hb bool, horizon time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.nextSeq++
	b.pending.Add(1)
	s.outbox = append(s.outbox, Notification{
		Source:    b.name,
		SessionID: s.id,
		Seq:       s.nextSeq,
		Heartbeat: hb,
		RegID:     regID,
		Event:     ev,
		Horizon:   horizon,
	})
}

// drain flushes s.outbox to the sink in order, with no lock held while
// the sink runs. Only one goroutine drains a session at a time; others
// find it draining and leave what they queued to it, so delivery order
// matches preparation order.
func (b *Broker) drain(s *session) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	for len(s.outbox) > 0 {
		batch := s.outbox
		s.outbox, s.spare = s.spare, nil
		b.pending.Add(-int64(len(batch)))
		sink := s.sink
		s.mu.Unlock()
		for _, n := range batch {
			sink.Deliver(n)
		}
		clear(batch) // the recycled array must not pin payloads
		s.mu.Lock()
		if cap(batch) <= maxSpareOutbox {
			s.spare = batch[:0]
		}
	}
	s.draining = false
	s.mu.Unlock()
}

// horizon returns the broker's event-horizon timestamp: a lower bound on
// timestamps of future notifications.
func (b *Broker) horizon() time.Time {
	b.stampMu.Lock()
	defer b.stampMu.Unlock()
	return b.horizonLocked()
}

// horizonLocked is horizon with stampMu held. Events are stamped with a
// monotone clock reading taken under the same lock, so the later of
// the clock and the last stamp is such a bound.
func (b *Broker) horizonLocked() time.Time {
	if now := b.clk.Now(); now.After(b.lastStamp) {
		return now
	}
	return b.lastStamp
}

// Signal stamps and signals an event: it is buffered for matching
// pre-registrations and delivered to every live registration whose
// template matches and whose session may see it, queued on every one
// before any sink runs (see Broker).
func (b *Broker) Signal(ev Event) Event {
	return b.dispatch(ev)
}

// SignalTo stamps an event as Signal does and notifies, with
// registration id 0, those of the listed sessions that are open and may
// see it: no template is matched and no pre-registration buffers it.
// Every target has the event queued before any sink runs (see Broker).
func (b *Broker) SignalTo(ev Event, sessions []uint64) {
	var buf [4]*session // on the stack: an event goes to a few watchers
	targets := buf[:0]
	b.mu.RLock()
	for _, id := range sessions {
		if s, ok := b.sessions[id]; ok {
			targets = append(targets, s)
		}
	}
	b.mu.RUnlock()
	b.stampMu.Lock()
	ev = b.stampLocked(ev)
	horizon := b.horizonLocked()
	visible := targets[:0]
	for _, s := range targets {
		if b.visible(s, ev) {
			b.enqueue(s, 0, ev, false, horizon)
			visible = append(visible, s)
		}
	}
	b.stampMu.Unlock()
	for _, s := range visible {
		b.drain(s)
	}
}

// stampLocked names the source and gives a monotone time (so horizons
// are honest) and the next event sequence number; caller holds stampMu.
func (b *Broker) stampLocked(ev Event) Event {
	ev.Source = b.name
	now := b.clk.Now()
	if !now.After(b.lastStamp) {
		now = b.lastStamp.Add(time.Nanosecond)
	}
	b.lastStamp = now
	ev.Time = now
	b.eventSeq++
	ev.Seq = b.eventSeq
	return ev
}

// dispatch stamps the event, matches it against candidate
// registrations (by name, and by name+first-literal when the event has
// arguments) and notifies every interested live session. Matching runs
// under the read lock, and with the queueing under stampMu; delivery
// runs outside every lock.
func (b *Broker) dispatch(ev Event) Event {
	type target struct {
		s     *session
		regID uint64
	}
	var targets []target
	shouldBuffer := false
	scan := func(bucket map[uint64]*registration) {
		for _, r := range bucket {
			if !r.template.Matches(ev) {
				continue
			}
			if r.pre {
				shouldBuffer = true
				continue
			}
			s, ok := b.sessions[r.session]
			if !ok || !b.visible(s, ev) {
				continue
			}
			targets = append(targets, target{s, r.id})
		}
	}
	b.stampMu.Lock()
	ev = b.stampLocked(ev)
	b.mu.RLock()
	scan(b.index[ev.Name])
	if len(ev.Args) > 0 {
		scan(b.index[ev.Name+"\x00"+ev.Args[0].String()])
	}
	b.mu.RUnlock()

	if shouldBuffer {
		// Buffer for retrospective registration, trimming by age and
		// count (§6.8.1). Rare path: takes the write lock.
		b.mu.Lock()
		b.buffer = append(b.buffer, buffered{ev: ev, added: ev.Time})
		b.trimBufferLocked(ev.Time)
		b.mu.Unlock()
	}

	horizon := b.horizonLocked()
	for _, t := range targets {
		b.enqueue(t.s, t.regID, ev, false, horizon)
	}
	b.stampMu.Unlock()
	for _, t := range targets {
		b.drain(t.s)
	}
	return ev
}

func (b *Broker) trimBufferLocked(now time.Time) {
	cutoff := now.Add(-b.opts.RetainFor)
	i := 0
	for i < len(b.buffer) && b.buffer[i].added.Before(cutoff) {
		i++
	}
	if over := len(b.buffer) - i - b.opts.RetainMax; over > 0 {
		i += over
	}
	if i > 0 {
		b.buffer = append([]buffered(nil), b.buffer[i:]...)
	}
}

// Heartbeat asserts the broker's liveness to every open session: each
// receives a heartbeat notification carrying the current event horizon
// (§4.10). The owner calls this every t seconds (or wires it to a
// timer). Sessions are snapshotted under the read lock and notified
// outside it, so a slow sink never stalls registration traffic; every
// session has its heartbeat queued before any sink runs (see Broker).
func (b *Broker) Heartbeat() {
	b.mu.RLock()
	sessions := make([]*session, 0, len(b.sessions))
	for _, s := range b.sessions {
		sessions = append(sessions, s)
	}
	b.mu.RUnlock()
	b.stampMu.Lock()
	horizon := b.horizonLocked()
	for _, s := range sessions {
		b.enqueue(s, 0, Event{}, true, horizon)
	}
	b.stampMu.Unlock()
	for _, s := range sessions {
		b.drain(s)
	}
}

// SessionSeq reports the highest sequence number assigned on the
// session so far. A resync snapshot quotes it as the stream position
// the snapshot supersedes: the issuer must read it BEFORE reading
// record state, so that an update racing the snapshot is either in the
// state it reads or delivered later with a sequence above the quoted
// floor — captured twice at worst (idempotent), never lost.
func (b *Broker) SessionSeq(sess uint64) (uint64, error) {
	b.mu.RLock()
	s, ok := b.sessions[sess]
	b.mu.RUnlock()
	if !ok {
		return 0, ErrNoSession
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextSeq, nil
}

// PendingNotifications reports the total depth of the per-session
// outboxes — notifications prepared but not yet handed to their sinks —
// from one counter that enqueue and drain keep under each session's
// lock, so a read costs the same whatever the session count.
// A sustained backlog means the delivery plane is saturated; the HTTP
// gateway reads this (together with the bus's own queues) to shed load
// instead of letting the queues grow without bound.
func (b *Broker) PendingNotifications() int { return int(b.pending.Load()) }

// Lookup support: some services (the Namer's active database, §6.3.3)
// need an atomic combined lookup-and-register. The broker provides the
// primitive: RegisterAndQuery registers the template live and, under the
// same lock, returns the result of the caller's query function, so no
// update can slip between the two.
func (b *Broker) RegisterAndQuery(sess uint64, t Template, query func() []Event) (uint64, []Event, error) {
	b.mu.Lock()
	if _, ok := b.sessions[sess]; !ok {
		b.mu.Unlock()
		return 0, nil, ErrNoSession
	}
	b.nextReg++
	id := b.nextReg
	r := &registration{id: id, session: sess, template: t}
	b.regs[id] = r
	b.indexAddLocked(r)
	existing := query()
	b.mu.Unlock()
	return id, existing, nil
}
