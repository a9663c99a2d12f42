package oasis

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"oasis/internal/bus"
	"oasis/internal/cert"
	"oasis/internal/credrec"
	"oasis/internal/event"
	"oasis/internal/ids"
	"oasis/internal/value"
)

// ModifiedEvent is the event type a service signals when a watched
// credential record changes state (§4.9.2). Arguments: the record
// reference (hex string), the new state, and a permanence flag.
const ModifiedEvent = "Oasis.Modified"

// GetTypesArg asks a service for a role's parameter types (§4.3).
type GetTypesArg struct {
	Rolefile string
	Role     string
}

// ValidateArg asks an issuing service to validate a certificate
// presented elsewhere (§2.10: services offer to validate certificates
// for use in other services). Watch additionally subscribes the caller
// to state changes of the certificate's credential record.
type ValidateArg struct {
	Cert   *cert.RMC
	Client ids.ClientID
	Watch  bool
}

// ValidateReply carries the validation verdict and the certificate's
// role names. Types and RegID are places on the wire that no peer reads
// — a watcher routes a Modified event by its source and the record it
// names, and asks gettypes for types — so the issuer leaves them zero.
type ValidateReply struct {
	Roles []string
	Types []value.Type
	State credrec.State
	RegID uint64
}

// ResyncArg asks an issuing service for the authoritative state of the
// listed credential records after a communications failure (§4.10:
// "when connection is re-established the state of each record is
// read"), and to go on telling the caller of their changes: an issuer
// that has restarted since holds no watch of the caller's until it is
// asked. The caller sorts Refs so the reply comes out in a
// deterministic order.
type ResyncArg struct {
	Refs []credrec.Ref
}

// ResyncEntry is one record's authoritative state as its owner asserts
// it: a row of a resync snapshot.
type ResyncEntry struct {
	Ref       credrec.Ref
	State     credrec.State
	Permanent bool
}

// ResyncReply carries the snapshot plus the caller's notification
// stream position at the moment it was taken: every update covered by
// the snapshot was sent at or below Seq, so the caller can seal the
// stream there and know that anything newer still flows.
type ResyncReply struct {
	Session uint64
	Seq     uint64
	Entries []ResyncEntry
}

// Call implements bus.Endpoint: the service's inter-service interface,
// four operations on a port that authenticates nobody (docs/PROTOCOLS.md).
func (s *Service) Call(from, op string, arg any) (any, error) {
	switch op {
	case "gettypes":
		return serve(op, arg, func(a GetTypesArg) ([]value.Type, error) { return s.localTypes(a.Rolefile, a.Role) })
	case "validate":
		return serve(op, arg, func(a ValidateArg) (ValidateReply, error) { return s.handleValidate(from, a) })
	case "resync":
		return serve(op, arg, func(a ResyncArg) (ResyncReply, error) { return s.handleResync(from, a) })
	case "treeforward":
		return serve(op, arg, func(a TreeForwardArg) (any, error) { return nil, s.handleTreeForward(a) })
	default:
		return nil, fmt.Errorf("oasis: unknown operation %q", op)
	}
}

// serve runs one operation's handler on the argument type it takes and
// refuses anything else found in the argument position.
func serve[A, R any](op string, arg any, handle func(A) (R, error)) (any, error) {
	a, ok := arg.(A)
	if !ok {
		return nil, fmt.Errorf("oasis: bad %s argument %T", op, arg)
	}
	r, err := handle(a)
	return r, err
}

// Deliver implements bus.Endpoint: notifications go to the receiver. The
// first from a source degraded since it was last heard from (§4.10: a
// partition healed) resyncs it with AutoResync, after its payload.
func (s *Service) Deliver(n event.Notification) {
	revived := s.heard(n.Source)
	s.receiver.Deliver(n)
	if revived && s.opts.AutoResync && s.SourceStatus(n.Source) != SourceAlive {
		s.tryResync(n.Source)
	}
}

// DeliverBatch implements bus.BatchEndpoint: a notification burst (a
// peer's revocation storm) is applied under our own outbound batch, so
// any Modified events it triggers on records derived from the affected
// surrogates fan out downstream as one burst per watcher too.
func (s *Service) DeliverBatch(notes []event.Notification) {
	_ = s.batchNotify(func() error {
		for _, n := range notes {
			s.Deliver(n)
		}
		return nil
	})
}

var _ bus.Endpoint = (*Service)(nil)
var _ bus.BatchEndpoint = (*Service)(nil)

// modifiedCoalesceRule teaches the bus batch path the Modified-event
// vocabulary (§4.9.2): events for the same record ref supersede each
// other (last writer wins), except a permanent False — revocation is
// forever (§4.6) — which later events must never replace.
var modifiedCoalesceRule = bus.CoalesceRule{
	Key: func(ev event.Event) string {
		if ev.Name != ModifiedEvent || len(ev.Args) != 3 {
			return ""
		}
		return ev.Args[0].S
	},
	Sticky: func(ev event.Event) bool {
		if ev.Name != ModifiedEvent || len(ev.Args) != 3 {
			return false
		}
		return credrec.State(ev.Args[1].I) == credrec.False && ev.Args[2].I != 0
	},
}

// batchNotify runs fn with a notification batch open on the network:
// every Modified event and heartbeat signalled inside is buffered and
// flushed as one coalesced burst per destination when fn returns.
// Revocation cascades and heartbeat ticks route through here.
func (s *Service) batchNotify(fn func() error) error {
	if s.net == nil {
		return fn()
	}
	s.net.StartBatch(s.name)
	defer s.net.EndBatch(s.name)
	return fn()
}

// handleValidate validates one of our certificates on behalf of another
// service, optionally registering that service for Modified events on
// the certificate's credential record.
func (s *Service) handleValidate(from string, a ValidateArg) (ValidateReply, error) {
	c := a.Cert
	if c == nil || c.Service != s.name {
		return ValidateReply{}, fmt.Errorf("oasis: certificate not issued by %s", s.name)
	}
	if !s.verifyCert(c) {
		s.countFailure(Fraud)
		return ValidateReply{}, fmt.Errorf("oasis: signature check failed")
	}
	if !a.Client.IsZero() && c.Client != a.Client {
		s.countFailure(Fraud)
		return ValidateReply{}, fmt.Errorf("oasis: certificate bound to a different client")
	}
	if !c.Expiry.IsZero() && s.clk.Now().After(c.Expiry) {
		return ValidateReply{State: credrec.False}, nil
	}
	fs, err := s.rolefileFor(c.Rolefile)
	if err != nil {
		return ValidateReply{}, err
	}
	var watch func(credrec.Ref) error
	if a.Watch {
		watch = func(ref credrec.Ref) error { return s.watchFor(from, ref) }
	}
	var one [1]ResyncEntry // on the stack: validation is the peer port's hot path
	answer, err := s.subscribeThenRead(one[:0], []credrec.Ref{c.CRR}, watch, nil)
	if err != nil {
		return ValidateReply{}, err
	}
	return ValidateReply{Roles: fs.roleMap.Names(c.Roles), State: answer[0].State}, nil
}

// subscribeThenRead is the issuer's one answer to a peer's question
// about its records, whichever operation asks it (§4.10: "the state of
// each record is read"): every record is first flagged so its changes
// are signalled and the caller subscribed to them — by subscribe, the
// operation's own way of remembering who watches; nil asks for a plain
// read — and only then read, the answers appended to entries. A
// revocation landing after the read is then one the caller is told
// about; read first, and a logout falling between the two would be in
// neither the answer nor the stream. between, if set, runs once every
// subscription stands and before any state is read. A record revoked
// and swept has nothing left to announce (§4.8): it subscribes nobody
// and reads as permanently False.
func (s *Service) subscribeThenRead(entries []ResyncEntry, refs []credrec.Ref, subscribe func(credrec.Ref) error, between func()) ([]ResyncEntry, error) {
	if subscribe != nil {
		for _, ref := range refs {
			if err := s.store.MarkNotify(ref); errors.Is(err, credrec.ErrDangling) {
				continue
			} else if err != nil {
				return nil, err
			}
			if err := subscribe(ref); err != nil {
				return nil, err
			}
		}
	}
	if between != nil {
		between()
	}
	entries = slices.Grow(entries, len(refs))
	for _, ref := range refs {
		st, perm, _ := s.store.Resolve(ref)
		entries = append(entries, ResyncEntry{Ref: ref, State: st, Permanent: perm})
	}
	return entries, nil
}

// watchFor is the issuer's one way into a watch: it registers the peer
// for the changes of a record subscribeThenRead has flagged. A record
// already permanent has nothing left to announce (§4.8) and registers
// nothing. watchMu is held throughout, so concurrent questions from one
// peer share one broker session, repeated ones about one record share
// one registration (a change is one notification per watcher, however
// often the watcher asked), and a record that turns permanent after the
// check finds the row when releaseWatches takes the same lock.
func (s *Service) watchFor(peer string, ref credrec.Ref) error {
	if s.net == nil {
		return fmt.Errorf("oasis: no network")
	}
	key := ref.Uint64()
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	for _, w := range s.watches[key] {
		if w.peer == peer {
			return nil
		}
	}
	if _, permanent, _ := s.store.Resolve(ref); permanent {
		return nil
	}
	sess, ok := s.watchSessions[peer]
	if !ok {
		var err error
		sess, err = s.broker.OpenSession(s.net.Sink(s.name, peer), nil)
		if err != nil {
			return err
		}
		s.watchSessions[peer] = sess
	}
	tmpl := event.NewTemplate(ModifiedEvent,
		event.Lit(value.Str(refString(ref))), event.Wildcard(), event.Wildcard())
	regID, err := s.broker.Register(sess, tmpl)
	if err != nil {
		return err
	}
	s.watches[key] = append(s.watches[key], watcher{peer, regID})
	return nil
}

// watcher is one peer's watch on one of our records, from the validate
// or resync that asked for it until the record's permanent transition.
type watcher struct {
	peer string
	reg  uint64
}

// releaseWatches is the one way out of a watch. A permanent transition
// is the last thing a watch ever carries (§4.6, §4.8), so once it has
// been signalled the record's registrations leave the broker and its
// row leaves the table.
func (s *Service) releaseWatches(ref credrec.Ref) {
	s.watchMu.Lock()
	row := s.watches[ref.Uint64()]
	delete(s.watches, ref.Uint64())
	s.watchMu.Unlock()
	for _, w := range row {
		s.broker.Deregister(w.reg)
	}
}

func refString(ref credrec.Ref) string {
	return strconv.FormatUint(ref.Uint64(), 16)
}

// onRecordChange translates Notify-flagged credential record changes
// into Modified events on the service's broker (§4.9.2).
func (s *Service) onRecordChange(ref credrec.Ref, st credrec.State, permanent bool) {
	perm := int64(0)
	if permanent {
		perm = 1
	}
	s.broker.Signal(event.New(ModifiedEvent,
		value.Str(refString(ref)), value.Int(int64(st)), value.Int(perm)))
	if permanent {
		s.releaseWatches(ref)
	}
}

// surrogateFor returns the local external record standing for a record
// of another service (or another shard), and whether this call created
// it. Its name (credrec.SurrogateName) and its row of extRecords, keyed
// by source and remote reference, are the watcher's binding to the
// record (figure 4.8: record name spaces are managed separately). It is
// Unknown until its issuer says otherwise. extMu is held across the
// check and the creation so concurrent validations of one remote record
// share one surrogate; a row whose surrogate the sweep has collected is
// re-minted.
func (s *Service) surrogateFor(source string, remote credrec.Ref) (local credrec.Ref, created bool) {
	s.extMu.Lock()
	defer s.extMu.Unlock()
	rows := s.rowsFor(source)
	if local, ok := rows[remote.Uint64()]; ok {
		if _, err := s.store.Lookup(local); err == nil {
			return local, false
		}
	}
	local = s.store.NewExternal(credrec.SurrogateName(source, remote), credrec.Unknown)
	rows[remote.Uint64()] = local
	return local, true
}

// rowsFor returns a source's rows; the first installs the source's
// Modified handler. Caller holds extMu.
func (s *Service) rowsFor(source string) map[uint64]credrec.Ref {
	rows := s.extRecords[source]
	if rows == nil {
		rows = make(map[uint64]credrec.Ref)
		s.extRecords[source] = rows
		s.receiver.HandleFrom(source, 0, func(ev event.Event) { s.onModified(source, ev) })
	}
	return rows
}

// rebind takes up the surrogates a restarted watcher finds in its store
// (§4.10): each not final gets its row back, and its source, observed
// now, is Suspect until the first delivery's resync re-opens the watch.
// One whose name does not say what it mirrors predates surrogate names;
// nothing can feed it, so it is invalidated.
func (s *Service) rebind() {
	s.store.Externals(func(local credrec.Ref, name string, final bool) {
		source, remote, err := credrec.ParseSurrogateName(name)
		switch {
		case final:
		case err != nil:
			_ = s.store.Invalidate(local)
		default:
			s.extMu.Lock()
			s.rowsFor(source)[remote.Uint64()] = local
			s.extMu.Unlock()
		}
	})
	var sources []string
	s.extMu.Lock()
	for source := range s.extRecords {
		sources = append(sources, source)
	}
	s.extMu.Unlock()
	sort.Strings(sources)
	for _, source := range sources {
		s.receiver.ObserveSource(source, s.clk.Now())
		s.setSourceState(source, SourceSuspect)
	}
}

// abandonSurrogate undoes a surrogateFor whose question got no True for
// an answer, so that refused validations leave nothing behind: the row
// goes, and its record is invalidated for the sweep. It holds back when
// a concurrent validation of the same record has meanwhile been told
// True — that one derives from the surrogate.
func (s *Service) abandonSurrogate(source string, remote, local credrec.Ref) {
	if s.store.Valid(local) {
		return
	}
	s.extMu.Lock()
	if s.extRecords[source][remote.Uint64()] == local {
		delete(s.extRecords[source], remote.Uint64())
	}
	s.extMu.Unlock()
	_ = s.store.Invalidate(local)
}

// WatchCertificate validates a certificate issued by another service
// and returns a local external credential record tracking its validity
// by event notification. Layered services (the MSSA's bypassing
// custodes, figure 5.8) use it to cache a callback check: the record
// stays true until the issuer revokes, with no further remote calls.
func (s *Service) WatchCertificate(c *cert.RMC, client ids.ClientID) (credrec.Ref, []string, error) {
	roles, ext, err := s.validateForeign(c, client)
	return ext, roles, err
}

// validateForeign validates a certificate issued by another service
// against an external credential record kept coherent by event
// notification (§4.9). The row exists before the question is asked, so
// whatever the issuer signals after answering — a Modified event can
// overtake the reply — finds it; repeat validations of the same remote
// record reuse the surrogate.
func (s *Service) validateForeign(c *cert.RMC, client ids.ClientID) ([]string, credrec.Ref, error) {
	if s.net == nil {
		return nil, credrec.Ref{}, s.fail(Erroneous, "no network to validate certificate from %s", c.Service)
	}
	ext, created := s.surrogateFor(c.Service, c.CRR)
	roles, err := s.validateInto(ext, c, client)
	if err != nil {
		if created {
			s.abandonSurrogate(c.Service, c.CRR, ext)
		}
		return nil, credrec.Ref{}, err
	}
	return roles, ext, nil
}

// validateInto asks the issuer and applies its answer the way every
// later assertion is applied. The verdict is then the surrogate's: a
// revocation that overtook the reply has already invalidated it and
// dropped the row, so the stale True found nothing to write.
func (s *Service) validateInto(ext credrec.Ref, c *cert.RMC, client ids.ClientID) ([]string, error) {
	res, err := s.net.Call(s.name, c.Service, "validate", ValidateArg{Cert: c, Client: client, Watch: true})
	if err != nil {
		verr := s.fail(Revoked, "cannot reach issuer %s: %v", c.Service, err)
		verr.Cause = err
		return nil, verr
	}
	reply, ok := res.(ValidateReply)
	if !ok {
		return nil, fmt.Errorf("oasis: bad validate reply from %s", c.Service)
	}
	s.applyRemote(c.Service, c.CRR, reply.State, false)
	if reply.State != credrec.True {
		return nil, s.fail(Revoked, "issuer %s reports certificate %v", c.Service, reply.State)
	}
	if !s.store.Valid(ext) {
		return nil, s.fail(Revoked, "issuer %s revoked the certificate while validating it", c.Service)
	}
	// The synchronous validation proved the issuer alive just now; start
	// the heartbeat liveness window from here.
	s.receiver.ObserveSource(c.Service, s.clk.Now())
	s.heard(c.Service)
	return reply.Roles, nil
}

// onModified is the Modified handler of every registration of one
// source (§4.9.2): the event names the issuer's record, the row names
// ours.
func (s *Service) onModified(source string, ev event.Event) {
	if len(ev.Args) != 3 {
		return
	}
	u, err := strconv.ParseUint(ev.Args[0].S, 16, 64)
	if err != nil {
		return
	}
	s.applyRemote(source, credrec.RefFromUint64(u), credrec.State(ev.Args[1].I), ev.Args[2].I != 0)
}

// applyRemote is the one way an issuer's assertion about one of its
// records reaches the local surrogate, whichever way it arrived — a
// Modified event or a resync entry (a validate reply is applied as the
// first of them). No row means nobody here watches the record, and the
// assertion is dropped. A permanent False is an
// invalidation: revocation is forever (§4.6), and the surrogate then
// refuses every later write. Anything else is a state write, frozen
// when the issuer says the state is final: a record that is true and
// will always remain true needs no further watching (§4.8), so the
// issuer falling silent no longer fails it safe. Either way a permanent
// state is the last the issuer will ever assert, so the row goes with
// it. extMu covers the table only: the store is written with no service
// lock held, since a cascade it starts may notify its way back here.
func (s *Service) applyRemote(source string, remote credrec.Ref, state credrec.State, permanent bool) {
	s.extMu.Lock()
	rows := s.extRecords[source]
	local, ok := rows[remote.Uint64()]
	if ok && permanent {
		delete(rows, remote.Uint64())
	}
	s.extMu.Unlock()
	if !ok {
		return
	}
	if permanent && state == credrec.False {
		_ = s.store.Invalidate(local)
		return
	}
	_ = s.store.SetState(local, state)
	if permanent {
		_ = s.store.MakePermanent(local)
	}
}

// HeartbeatTick asserts liveness to every watcher (§4.10); wire it to a
// timer with the service's chosen period t, or use StartDuties. The
// fan-out goes through the batch path: one burst per watcher.
func (s *Service) HeartbeatTick() {
	_ = s.batchNotify(func() error {
		s.broker.Heartbeat()
		return nil
	})
	s.ShardHeartbeatTick()
}

// StartDuties runs the service's periodic duties on its clock, every
// heartbeat period (Options.HeartbeatEvery; default 5s), until the
// returned stop function halts the loop and waits for it to exit —
// services own their background goroutines' lifetimes.
func (s *Service) StartDuties() (stop func()) {
	period := s.heartbeatPeriod()
	stopCh := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-s.clk.After(period):
				s.dutyTick()
			case <-stopCh:
				return
			}
		}
	}()
	return func() {
		close(stopCh)
		<-done
	}
}

// dutyTick is one period's work. Suspicion runs first: a heartbeat
// makes synchronous treeforward calls that can each block for a
// bus.CallDeadline, and detecting a silent source must not queue
// behind them. The delegation safety net (§4.4) comes next; it costs a
// map walk and does nothing while no TTL is set. The record sweep
// (§4.8) is last, so what expiry just invalidated is reclaimed in the
// same period: the duty loop owns the daemon's memory, whatever the
// store (a journaled one still sweeps before each snapshot as well —
// that sweep owns the image).
func (s *Service) dutyTick() {
	s.SuspicionTick()
	s.HeartbeatTick()
	s.ExpireTick()
	s.SweepTick()
}

// handleResync serves the responder side of the resync protocol: the
// caller is (re)subscribed to every record it lists — an issuer that
// restarted since the caller first asked has no other way to learn who
// watches what — and told their states; nobody else is told anything.
// The ordering is the protocol's one invariant: the caller's session
// sequence is read BEFORE any record state. An update racing with the
// snapshot is then always captured at least once — in the snapshot if
// it lands before the state read, or in a notification numbered above
// Seq (which the caller's stream floor lets through) if it lands
// after. Read the other way round, an update falling between the state
// read and the sequence read would be in neither. The sequence in turn
// is read after the subscriptions, the first of which may have opened
// the session it belongs to.
func (s *Service) handleResync(from string, a ResyncArg) (reply ResyncReply, err error) {
	reply.Entries, err = s.subscribeThenRead(nil, a.Refs,
		func(ref credrec.Ref) error { return s.watchFor(from, ref) },
		func() {
			s.watchMu.Lock()
			sess, watched := s.watchSessions[from]
			s.watchMu.Unlock()
			if !watched {
				return
			}
			if seq, err := s.broker.SessionSeq(sess); err == nil {
				reply.Session, reply.Seq = sess, seq
			}
		})
	return reply, err
}

// ResyncSource re-reads the authoritative state of every external
// record held from a source (§4.10) and seals the notification stream
// at the snapshot point, so a delayed pre-snapshot notification can
// never roll a record back behind the snapshot; success is the one way
// a degraded source returns to Alive. Safe to call at any time:
// re-applying current state is a no-op.
func (s *Service) ResyncSource(source string) error {
	if s.net == nil {
		return fmt.Errorf("oasis: no network")
	}
	s.extMu.Lock()
	refs := make([]credrec.Ref, 0, len(s.extRecords[source]))
	for u := range s.extRecords[source] {
		refs = append(refs, credrec.RefFromUint64(u))
	}
	s.extMu.Unlock()
	sort.Slice(refs, func(i, j int) bool { return refs[i].Uint64() < refs[j].Uint64() })

	res, err := s.net.Call(s.name, source, "resync", ResyncArg{Refs: refs})
	if err != nil {
		return err
	}
	reply, ok := res.(ResyncReply)
	if !ok {
		return fmt.Errorf("oasis: bad resync reply from %s", source)
	}
	// Seal the stream before applying the snapshot: notifications still
	// in flight from before the snapshot are stale by construction.
	if reply.Session != 0 || reply.Seq != 0 {
		s.receiver.SetSessionFloor(source, reply.Session, reply.Seq)
	}
	_ = s.batchNotify(func() error {
		for _, e := range reply.Entries {
			s.applyRemote(source, e.Ref, e.State, e.Permanent)
		}
		return nil
	})
	s.receiver.ObserveSource(source, s.clk.Now())
	s.heard(source)
	s.setSourceState(source, SourceAlive)
	return nil
}
