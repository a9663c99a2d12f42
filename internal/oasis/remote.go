package oasis

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"

	"oasis/internal/bus"
	"oasis/internal/cert"
	"oasis/internal/credrec"
	"oasis/internal/event"
	"oasis/internal/ids"
	"oasis/internal/value"
)

// ModifiedEvent is the event type a service signals when watched
// credential records change state (§4.9.2). Arguments: one or more
// triples, one per record change in the order the records changed —
// the record reference (hex string), the new state, and a permanence
// flag. A cascade is one event per watcher; a lone change is one
// triple.
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

// ResyncReply carries the snapshot, each record's authoritative state
// as its owner asserts it, plus the caller's notification
// stream position at the moment it was taken: every update covered by
// the snapshot was sent at or below Seq, so the caller can seal the
// stream there and know that anything newer still flows.
type ResyncReply struct {
	Session uint64
	Seq     uint64
	Entries []credrec.Change
}

// opTable is the service's inter-service interface, three operations
// on a port that authenticates nobody (docs/PROTOCOLS.md). validate
// reads this service's own signer, rolefiles and store and calls
// nobody, so a peer link's read loop may answer it, unless it asks to
// watch and the store's MarkNotify would wait for the disk (a journal
// under SyncAlways). resync subscribes a list of up to 65 536 records,
// and gettypes is asked once per role: they stay on workers
// (docs/PROTOCOLS.md "Served calls").
func (s *Service) opTable() bus.Ops {
	return bus.Ops{
		&bus.Op[GetTypesArg, []value.Type]{Name: "gettypes", ArgTag: wireTagGetTypesArg, ReplyTag: wireTagTypes,
			Serve: func(_ string, a GetTypesArg, _ []value.Type) ([]value.Type, error) {
				return s.localTypes(a.Rolefile, a.Role)
			}},
		&bus.Op[ValidateArg, ValidateReply]{Name: "validate", ArgTag: wireTagValidateArg, ReplyTag: wireTagValidateReply,
			NeverWaits: func(a ValidateArg) bool { return !(a.Watch && s.diskWait) },
			Serve:      s.handleValidate},
		&bus.Op[ResyncArg, ResyncReply]{Name: "resync", ArgTag: wireTagResyncArg, ReplyTag: wireTagResyncReply,
			Serve: func(from string, a ResyncArg, _ ResyncReply) (ResyncReply, error) {
				return s.handleResync(from, a)
			}},
	}
}

// Ops implements bus.OpTable.
func (s *Service) Ops() bus.Ops { return s.ops }

// Call implements bus.Endpoint, from the op table.
func (s *Service) Call(from, op string, arg any) (any, error) { return s.ops.Call(from, op, arg) }

// Deliver implements bus.Endpoint: notifications go to the receiver. A
// Modified event is one store mutation here: what it changes in records
// this service's own watchers watch is one event per watcher, handed to
// its session before Deliver returns. While a resync of the source is
// in flight, the note waits in its slot instead, behind the snapshot
// (resync). A note from a degraded source (§4.10: a partition healed)
// starts a resync with AutoResync, after its payload. Deliver calls no
// peer, so a link's read loop runs it inline.
func (s *Service) Deliver(n event.Notification) {
	s.suspMu.Lock()
	if r := s.resyncing[n.Source]; r != nil {
		if r.held = append(r.held, n); len(r.held) > maxHeldNotes {
			r.held = nil
			r.dropped.Store(true)
		}
		s.suspMu.Unlock()
		return
	}
	s.suspMu.Unlock()
	s.receiver.Deliver(n)
	s.tryResync(n.Source)
}

var _ bus.OpTable = (*Service)(nil)

// handleValidate validates one of our certificates on behalf of another
// service, optionally registering that service for Modified events on
// the certificate's credential record. The role names go into prev's
// array: a served connection's block answers one call after another.
func (s *Service) handleValidate(from string, a ValidateArg, prev ValidateReply) (ValidateReply, error) {
	c := a.Cert
	if c == nil || c.Service != s.name {
		return ValidateReply{}, fmt.Errorf("oasis: certificate not issued by %s", s.name)
	}
	if !c.Verify(s.signer) {
		s.rejected[Fraud].Add(1)
		return ValidateReply{}, fmt.Errorf("oasis: signature check failed")
	}
	if !a.Client.IsZero() && c.Client != a.Client {
		s.rejected[Fraud].Add(1)
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
	var one [1]credrec.Change // on the stack: validation is the peer port's hot path
	answer, err := s.subscribeThenRead(one[:0], []credrec.Ref{c.CRR}, watch, nil)
	if err != nil {
		return ValidateReply{}, err
	}
	return ValidateReply{Roles: fs.roleMap.AppendNames(prev.Roles[:0], c.Roles), State: answer[0].State}, nil
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
func (s *Service) subscribeThenRead(entries []credrec.Change, refs []credrec.Ref, subscribe func(credrec.Ref) error, between func()) ([]credrec.Change, error) {
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
		entries = append(entries, credrec.Change{Ref: ref, State: st, Permanent: perm})
	}
	return entries, nil
}

// watchFor is the issuer's one way into a watch: it enters the peer in
// the row of a record subscribeThenRead has flagged. A record already
// permanent has nothing left to announce (§4.8) and gets no entry.
// watchMu is held throughout, so concurrent questions from one peer
// share one broker session, repeated ones about one record share one
// entry (a change is one notification per watcher, however often the
// watcher asked), and a record that turns permanent after the check
// finds the entry when onRecordChange takes the same lock.
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
	s.watches[key] = append(s.watches[key], watcher{peer, sess})
	return nil
}

// watcher is one peer's watch on one of our records and the session it
// hears on, from the validate or resync that asked for it until the
// record's permanent transition.
type watcher struct {
	peer string
	sess uint64
}

func refString(ref credrec.Ref) string {
	return strconv.FormatUint(ref.Uint64(), 16)
}

// onRecordChange sends one mutation's changes of Notify-flagged records
// — a whole revocation cascade — to the sessions in their rows
// (§4.9.2): one Modified event per session, a triple per change of a
// record it watches, in transition order; sessions in every row share
// one event. A permanent transition is the last thing a watch carries
// (§4.6, §4.8), so its row leaves the table in the hold of watchMu that
// reads it. The rows are read after the hold: a row only grows at its
// end until it leaves the table.
func (s *Service) onRecordChange(changes []credrec.Change) {
	var rowBuf [16][]watcher // on the stack: a cascade comes here once
	rows := rowBuf[:0]
	s.watchMu.Lock()
	for _, c := range changes {
		rows = append(rows, s.watches[c.Ref.Uint64()])
		if c.Permanent {
			delete(s.watches, c.Ref.Uint64())
		}
	}
	s.watchMu.Unlock()
	var buf [4]uint64
	sessions := buf[:0]
	for _, row := range rows {
		for _, w := range row {
			if !slices.Contains(sessions, w.sess) {
				sessions = append(sessions, w.sess)
			}
		}
	}
	// A row lists a peer, and so its session, at most once: a row as
	// long as the union lists all of it.
	for _, row := range rows {
		if len(row) != 0 && len(row) != len(sessions) {
			for _, sess := range sessions {
				s.broker.SignalTo(modifiedFor(changes, rows, sess), []uint64{sess})
			}
			return
		}
	}
	if len(sessions) > 0 {
		s.broker.SignalTo(modifiedFor(changes, rows, 0), sessions)
	}
}

// hears reports whether a row lists the session; session 0, which the
// broker never opens, stands for any session.
func hears(row []watcher, sess uint64) bool {
	for _, w := range row {
		if sess == 0 || w.sess == sess {
			return true
		}
	}
	return false
}

// modifiedFor is the Modified event that tells a session of the
// changes whose row lists it (session 0: of every watched change).
func modifiedFor(changes []credrec.Change, rows [][]watcher, sess uint64) event.Event {
	n := 0
	for i := range changes {
		if hears(rows[i], sess) {
			n++
		}
	}
	args := make([]value.Value, 0, 3*n)
	for i, c := range changes {
		if !hears(rows[i], sess) {
			continue
		}
		perm := int64(0)
		if c.Permanent {
			perm = 1
		}
		args = append(args, value.Str(refString(c.Ref)), value.Int(int64(c.State)), value.Int(perm))
	}
	return event.New(ModifiedEvent, args...)
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
	buf := changeBufs.Get().(*[]credrec.Change)
	*buf = append((*buf)[:0], credrec.Change{Ref: c.CRR, State: reply.State})
	s.applyRemote(c.Service, *buf)
	changeBufs.Put(buf)
	if reply.State != credrec.True {
		return nil, s.fail(Revoked, "issuer %s reports certificate %v", c.Service, reply.State)
	}
	if !s.store.Valid(ext) {
		return nil, s.fail(Revoked, "issuer %s revoked the certificate while validating it", c.Service)
	}
	// The synchronous validation proved the issuer alive just now; start
	// the heartbeat liveness window from here.
	s.receiver.ObserveSource(c.Service, s.clk.Now())
	return reply.Roles, nil
}

// changeBufs holds the batches applyRemote is handed: a slice passed
// through the Recorder interface escapes, so a buffer on the stack
// would cost an allocation per event.
var changeBufs = sync.Pool{New: func() any { return new([]credrec.Change) }}

// onModified is the Modified handler of one source (§4.9.2): each
// triple of the event names one of the issuer's records, and the event
// is applied as one batch, in the order the issuer's records changed.
// An event is checked whole before anything is applied, so a malformed
// one applies nothing.
func (s *Service) onModified(source string, ev event.Event) {
	if len(ev.Args) == 0 || len(ev.Args)%3 != 0 {
		return
	}
	buf := changeBufs.Get().(*[]credrec.Change)
	defer changeBufs.Put(buf)
	*buf = (*buf)[:0]
	for i := 0; i < len(ev.Args); i += 3 {
		u, err := strconv.ParseUint(ev.Args[i].S, 16, 64)
		if err != nil {
			return
		}
		*buf = append(*buf, credrec.Change{Ref: credrec.RefFromUint64(u), State: credrec.State(ev.Args[i+1].I), Permanent: ev.Args[i+2].I != 0})
	}
	s.applyRemote(source, *buf)
}

// applyRemote is the one way an issuer's word about its records reaches
// the local surrogates, whichever way it arrived: a Modified event, a
// resync snapshot, or a validate reply as a batch of one. One extMu
// hold turns the issuer's references into ours, in place. A record
// nobody here watches has no row, and its change is dropped. A
// permanent state is the last the issuer will ever assert, so its row
// goes. What is left is one store mutation (credrec.Store.Apply): a
// permanent False is an invalidation, since revocation is forever
// (§4.6), and any other final state is frozen, since a record that is
// true and will always remain true needs no further watching (§4.8).
// extMu covers the table only: the store is written with no service
// lock held, since a cascade it starts may notify its way back here.
func (s *Service) applyRemote(source string, changes []credrec.Change) {
	s.extMu.Lock()
	rows := s.extRecords[source]
	n := 0
	for _, c := range changes {
		local, ok := rows[c.Ref.Uint64()]
		if !ok {
			continue
		}
		if c.Permanent {
			delete(rows, c.Ref.Uint64())
		}
		c.Ref = local
		changes[n] = c
		n++
	}
	s.extMu.Unlock()
	_ = s.store.Apply(changes[:n])
}

// HeartbeatTick asserts liveness to every watcher (§4.10); wire it to a
// timer with the service's chosen period t, or use StartDuties. Each
// watcher's session is sent one heartbeat.
func (s *Service) HeartbeatTick() {
	s.broker.Heartbeat()
}

// ClusterPendingNotifications is this service's notification backlog,
// the figure its gateway sheds mutating requests on: notes the broker
// holds for sessions whose sinks have not taken them, plus the bus's
// delay queue, which only a link policy fills (docs/GATEWAY.md
// "Backpressure contract" says what it leaves out).
func (s *Service) ClusterPendingNotifications() int {
	p := s.broker.PendingNotifications()
	if s.net != nil {
		p += s.net.PendingNotifications()
	}
	return p
}

// StartDuties runs the service's periodic duties on its clock, every
// heartbeat period (Options.HeartbeatEvery; default 5s), until the
// returned stop function halts the loop and waits for it to exit —
// services own their background goroutines' lifetimes. Nothing a tick
// runs waits on a peer, so each period's heartbeat leaves on time
// whatever a watched source does; a resync a tick starts outlives it,
// bounded by bus.CallDeadline.
func (s *Service) StartDuties() (stop func()) {
	period := s.heartbeatPeriod()
	stopCh := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-s.clk.After(period):
				start := s.clk.Now()
				s.dutyTick()
				took := int64(s.clk.Now().Sub(start))
				s.dutyLast.Store(took)
				if took > s.dutyLongest.Load() {
					s.dutyLongest.Store(took)
				}
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

// dutyTick is one period's work; StartDuties times each run on the
// service clock ("duty" in Vars). None of it calls a peer. The heartbeat
// goes first: it only queues on its watchers' sessions, and it is what
// keeps every watcher of this service trusting it (§4.10). Suspicion
// comes next; the resync it starts for a source heard again runs on a
// goroutine of its own. The delegation safety net (§4.4) costs a map
// walk and does nothing while no TTL is set. The record sweep (§4.8) is
// last, so what expiry just invalidated is reclaimed in the same
// period: the duty loop owns the daemon's memory, whatever the store (a
// journaled one still sweeps before each snapshot as well — that sweep
// owns the image).
func (s *Service) dutyTick() {
	s.HeartbeatTick()
	s.SuspicionTick()
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
// a degraded source returns to Alive. It takes the source's resync slot,
// waiting for a resync already in flight to let it go, and returns once
// the notes held behind its own snapshot are delivered. Safe to call at
// any time: re-applying current state is a no-op.
//
//oasislint:keep §4.10 resync on reconnection: without AutoResync the one way a degraded source returns to Alive
func (s *Service) ResyncSource(source string) error {
	return s.resync(source, s.takeSlot(source, true))
}

// applySnapshot asks the source for the state of every record held
// from it and applies the reply in the slot r: the stream's floor
// first, then the entries, then the source is Alive. Notes dropped from
// r's hold may be ones the snapshot does not cover, so once any are,
// the reply revives nothing: the source is left Suspect, its records
// Unknown, for the next resync. Notes dropped later, while the hold
// drains, leave a gap in the stream that the next note exposes.
func (s *Service) applySnapshot(source string, r *resyncSlot) error {
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
	s.receiver.ObserveSource(source, s.clk.Now())
	if r.dropped.Load() {
		s.setSourceState(source, max(s.SourceStatus(source), SourceSuspect))
		return fmt.Errorf("oasis: notes from %s dropped behind its resync", source)
	}
	// Seal the stream before applying the snapshot: notifications still
	// in flight from before the snapshot are stale by construction.
	if reply.Session != 0 || reply.Seq != 0 {
		s.receiver.SetSessionFloor(source, reply.Session, reply.Seq)
	}
	s.applyRemote(source, reply.Entries)
	s.setSourceState(source, SourceAlive)
	return nil
}
