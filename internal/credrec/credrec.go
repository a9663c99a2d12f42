// Package credrec implements OASIS credential records (sections 4.5-4.8
// of the paper): small records representing a server's current belief
// about some fact, linked into a directed graph so that a change in the
// value of one credential propagates to the certificates and services
// that depend on it. This is the basis of rapid, selective revocation.
//
// Records live in a table; (table index, magic) forms a reference that is
// unique over the life of the service, so a dangling reference is
// detected rather than misread (figure 4.7, [Lo94 6.4]). Child records
// hold counters of how many parents are true, false or unknown instead of
// back pointers; this is all that is needed to set a record's state.
//
// # Concurrency
//
// The table is striped into numShards segments; global index i lives in
// shard i%numShards. The validation hot path (Lookup/Valid — §4.6's
// single credential-record check) takes only that shard's read lock to
// resolve the slot, then atomically loads the record's published
// state, so reads of unrelated records never contend with each other
// or with writes to other shards. Mutations (allocation, state
// changes, flag sets, sweep) are serialised by a store-wide writeMu;
// allocation and sweep additionally take the write lock of the shard
// whose slot table they rewrite, one shard at a time. The propagation
// walk itself touches no shard locks: each record's reader-visible
// state+permanence pair lives in a single atomic word (record.sp),
// published before the record's slot becomes reachable and rewritten
// atomically on every transition.
//
// Lock order (deadlock freedom): writeMu is always acquired first;
// with writeMu held, at most ONE shard lock is held at any moment, and
// only for slot-table surgery (alloc, sweep, flag sets). Readers take
// a single shard read lock and nothing else. Fields read on the read
// path under the shard lock (slot.magic, slot.rec, record.external,
// record.autoRev and the flag bits) are only written under the owning
// shard's write lock; record.sp is atomic; graph-structure fields
// (children, parent counters, the mutator-owned state/permanent pair)
// are only touched by mutators, which writeMu already serialises.
// Because propagation is synchronous under writeMu and sp stores are
// sequentially consistent, when Invalidate returns every dependent
// record is already published false: a later Valid on any goroutine
// fails. Change notifications are queued under writeMu and handed to
// the observer by the same mutation after it is released, so ChangeFunc
// callbacks may re-enter the store.
//
// A store may carry a journal (persist.go): each mutator then encodes
// its record and queues it for the committer inside the same writeMu
// critical section that applied it, which is all that is needed for
// the journal order to equal the apply order.
package credrec

import (
	"bytes"
	"errors"
	"expvar"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// State is a record's current truth value. Unknown models network
// failure: the value cannot currently be confirmed (§4.10).
type State int

// Record states.
const (
	False State = iota + 1
	True
	Unknown
)

// String names the state.
func (s State) String() string {
	switch s {
	case True:
		return "true"
	case False:
		return "false"
	case Unknown:
		return "unknown"
	default:
		return "state(" + strconv.Itoa(int(s)) + ")"
	}
}

// Op is the binary operation a derived record performs on the effective
// truth values of its parents (§4.7). "Not" is an attribute of the
// parent→child edge, not an operation.
type Op int

// Derived-record operations.
const (
	OpAnd Op = iota + 1
	OpOr
	OpNand
	OpNor
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpAnd:
		return "and"
	case OpOr:
		return "or"
	case OpNand:
		return "nand"
	case OpNor:
		return "nor"
	default:
		return "op(" + strconv.Itoa(int(o)) + ")"
	}
}

// Ref is a credential record reference: the 64-bit (index, magic)
// identifier embedded in certificates (the CRR field of figure 4.2).
type Ref struct {
	Index uint32
	Magic uint32
}

// Uint64 packs the reference into the 8-byte wire form.
func (r Ref) Uint64() uint64 { return uint64(r.Index)<<32 | uint64(r.Magic) }

// RefFromUint64 unpacks a wire-form reference.
func RefFromUint64(u uint64) Ref {
	return Ref{Index: uint32(u >> 32), Magic: uint32(u)}
}

// String renders the reference.
func (r Ref) String() string { return fmt.Sprintf("crr:%d.%d", r.Index, r.Magic) }

// Parent designates a parent record, optionally via a negating edge.
type Parent struct {
	Ref     Ref
	Negated bool
}

// Not marks a negating edge to the given record.
func Not(r Ref) Parent { return Parent{Ref: r, Negated: true} }

// Of marks a plain edge to the given record.
func Of(r Ref) Parent { return Parent{Ref: r} }

// ErrDangling is returned when a reference's magic does not match the
// table slot: the record has been deleted (its fact is permanently
// false) or never existed.
var ErrDangling = errors.New("credrec: dangling credential record reference")

type childLink struct {
	ref     Ref
	negated bool
}

type record struct {
	ref Ref
	op  Op

	// sp is the published (state, permanent) pair readers load without
	// any lock: state in the low byte, permBit above it. state and
	// permanent below are the mutator-owned master copy, read and
	// written only under Store.writeMu; every change is mirrored into
	// sp via publish.
	sp        atomic.Uint32
	state     State
	permanent bool

	notify    bool // another service is using this credential
	directUse bool // a certificate embeds this credential
	autoRev   bool // revoke if a parent exits its role
	bridged   bool // a bridge on another shard mirrors it (ShardedStore)
	external  string

	children []childLink

	// Effective (post edge-negation) parent counters.
	nParents  int
	effTrue   int
	effFalse  int
	effUnk    int
	permTrue  int // effective-true parents that are permanent
	permFalse int
	permUnk   int
}

// permBit flags permanence in record.sp; the low byte holds the State.
const permBit = 1 << 8

// publish mirrors the mutator-owned state/permanent pair into the
// atomic word readers load. Caller holds Store.writeMu (or the record
// is not yet reachable).
func (r *record) publish() {
	v := uint32(r.state)
	if r.permanent {
		v |= permBit
	}
	r.sp.Store(v)
}

type slot struct {
	magic uint32
	rec   *record // nil when free
}

// numShards is the number of lock stripes; a power of two so the
// index→shard map is a mask. 16 comfortably exceeds the core counts we
// target while keeping the sweep/iteration cost negligible.
const numShards = 16

// shard is one lock stripe of the record table. Local position p holds
// the record with global index p*numShards + (shard id).
type shard struct {
	mu    sync.RWMutex
	slots []slot
	free  []uint32 // global indices available for reuse in this shard
}

// get resolves a reference within this shard; callers must hold sh.mu
// (readers: read lock; mutators additionally hold Store.writeMu, which
// makes an unlocked read safe — see getMut).
func (sh *shard) get(ref Ref) (*record, error) {
	p := int(ref.Index / numShards)
	if p >= len(sh.slots) {
		return nil, ErrDangling
	}
	s := sh.slots[p]
	if s.rec == nil || s.magic != ref.Magic {
		return nil, ErrDangling
	}
	return s.rec, nil
}

// ChangeFunc observes state changes of records whose Notify flag is set;
// the oasis layer uses it to drive cross-service event notification
// (§4.9.2). It is called once per mutation, on the mutating goroutine
// before the mutation returns: every Notify-flagged transition of the
// mutation — a whole revocation cascade — arrives in one call, in
// transition order (a record may appear more than once).
// The slice is the store's; the observer may rewrite it in place but
// must not keep it after returning.
type ChangeFunc func(changes []Change)

// Change is one transition of a Notify-flagged record. Permanent
// reports that the value will never change again.
type Change struct {
	Ref       Ref
	State     State
	Permanent bool
}

// Store is a server's credential record table.
type Store struct {
	// writeMu serialises all mutations; see the package comment for the
	// full lock order. The fields below it are mutator-only state.
	writeMu   sync.Mutex
	nalloc    uint64 // allocations so far; round-robin shard choice
	totalFree int    // sum of len(shard.free), to keep reuse-before-grow
	onChange  ChangeFunc
	pending   []Change   // notifications queued during propagation
	onBridge  ChangeFunc // a ShardedStore's fan-out to the bridges of bridged records
	bridging  []Change   // its transitions queued during propagation
	j         *journal   // commit pipeline (persist.go); nil keeps the store in memory only

	shards [numShards]shard

	// stats
	created atomic.Uint64
	deleted atomic.Uint64
}

// NewStore creates an empty credential record store.
func NewStore() *Store { return &Store{} }

func (st *Store) shardFor(index uint32) *shard {
	return &st.shards[index%numShards]
}

// OnChange installs the change observer for Notify-flagged records.
func (st *Store) OnChange(f ChangeFunc) {
	st.writeMu.Lock()
	defer st.writeMu.Unlock()
	st.onChange = f
}

// alloc places r in the table and assigns its reference. Caller holds
// writeMu. Shard choice is round-robin over the allocation count, but a
// freed slot anywhere is reused before any shard grows — both rules are
// functions of the operation order alone, keeping allocation
// deterministic for journal replay (persist.go).
func (st *Store) alloc(r *record) Ref {
	start := st.nalloc % numShards
	st.nalloc++
	shardID := uint32(start)
	if st.totalFree > 0 {
		for i := uint64(0); i < numShards; i++ {
			if len(st.shards[(start+i)%numShards].free) > 0 {
				shardID = uint32((start + i) % numShards)
				break
			}
		}
	}
	sh := &st.shards[shardID]
	sh.mu.Lock()
	if n := len(sh.free); n > 0 {
		idx := sh.free[n-1]
		sh.free = sh.free[:n-1]
		st.totalFree--
		p := idx / numShards
		sh.slots[p].magic++ // never reuse a reference
		sh.slots[p].rec = r
		r.ref = Ref{Index: idx, Magic: sh.slots[p].magic}
	} else {
		p := uint32(len(sh.slots))
		sh.slots = append(sh.slots, slot{magic: 1, rec: r})
		r.ref = Ref{Index: p*numShards + shardID, Magic: 1}
	}
	sh.mu.Unlock()
	st.created.Add(1)
	return r.ref
}

// getMut resolves a reference on the mutation path. Caller holds
// writeMu — the only writers of slot contents also hold writeMu, and
// readers never write them, so no shard lock is needed to look at the
// slot here.
func (st *Store) getMut(ref Ref) (*record, error) {
	return st.shardFor(ref.Index).get(ref)
}

// NewFact creates a leaf record asserting a simple fact with the given
// initial state.
func (st *Store) NewFact(s State) Ref {
	if st.lock() != nil {
		return Ref{}
	}
	r := &record{state: s}
	r.publish() // before alloc makes the slot reachable
	ref := st.alloc(r)
	if st.j != nil {
		st.j.op(opFact).PutUvarint(uint64(s))
	}
	return st.unlockRef(ref)
}

// NewExternal creates a surrogate record for a fact held by another
// service (§4.9.1). Its state is maintained by event notification via
// Apply; source records where the remote fact lives.
func (st *Store) NewExternal(source string, s State) Ref {
	if st.lock() != nil {
		return Ref{}
	}
	r := &record{state: s, external: source}
	r.publish() // before alloc makes the slot reachable
	ref := st.alloc(r)
	if st.j != nil {
		e := st.j.op(opExternal)
		e.PutString(source)
		e.PutUvarint(uint64(s))
	}
	return st.unlockRef(ref)
}

// SurrogateName names an external record for what it mirrors: the source
// holding the record and its reference there in hex. The binding is the
// holder's own business (figure 4.8), and the name is all a journal
// keeps of it, so a restarted holder binds its surrogates from it again.
func SurrogateName(source string, remote Ref) string {
	return source + "#" + strconv.FormatUint(remote.Uint64(), 16)
}

// ParseSurrogateName inverts SurrogateName, accepting only what it
// produces.
func ParseSurrogateName(name string) (source string, remote Ref, err error) {
	cut := strings.LastIndexByte(name, '#')
	u, err := strconv.ParseUint(name[cut+1:], 16, 64)
	source, remote = name[:max(cut, 0)], RefFromUint64(u)
	if cut < 0 || err != nil || SurrogateName(source, remote) != name {
		return "", Ref{}, fmt.Errorf("want <source>#<hex ref> in canonical form")
	}
	return source, remote, nil
}

// NewDerived creates a record computing op over the effective values of
// the given parents, links it beneath them, and returns its reference.
// Any dangling parent makes the new record permanently false (the fact it
// depended on has been revoked).
func (st *Store) NewDerived(op Op, parents ...Parent) Ref {
	if st.lock() != nil {
		return Ref{}
	}
	r := &record{op: op, nParents: len(parents)}
	// First pass: tally parent contributions and compute the initial
	// state, all before alloc makes the slot reachable — writeMu keeps
	// the parents still while we look.
	broken := false
	for _, p := range parents {
		pr, err := st.getMut(p.Ref)
		if err != nil {
			broken = true
			continue
		}
		eff := effective(pr.state, p.Negated)
		r.count(eff, +1, pr.permanent)
	}
	if broken {
		r.state, r.permanent = False, true
	} else {
		r.state = r.compute()
		r.permanent = r.decided()
	}
	r.publish()
	ref := st.alloc(r)
	// Second pass: link beneath the parents now that the ref exists.
	for _, p := range parents {
		if pr, err := st.getMut(p.Ref); err == nil {
			pr.children = append(pr.children, childLink{ref: ref, negated: p.Negated})
		}
	}
	if st.j != nil {
		e := st.j.op(opDerived)
		e.PutUvarint(uint64(op))
		e.PutUvarint(uint64(len(parents)))
		for _, p := range parents {
			e.PutUvarint(p.Ref.Uint64())
			e.PutBool(p.Negated)
		}
	}
	return st.unlockRef(ref)
}

// effective applies edge negation to a parent state.
func effective(s State, negated bool) State {
	if !negated {
		return s
	}
	switch s {
	case True:
		return False
	case False:
		return True
	default:
		return Unknown
	}
}

func (r *record) count(eff State, d int, permanent bool) {
	switch eff {
	case True:
		r.effTrue += d
		if permanent {
			r.permTrue += d
		}
	case False:
		r.effFalse += d
		if permanent {
			r.permFalse += d
		}
	case Unknown:
		r.effUnk += d
		if permanent {
			r.permUnk += d
		}
	}
}

// compute derives the record's state from its counters (§4.8: counters
// of the number of parents that are true, false or unknown are all that
// is required).
func (r *record) compute() State {
	var s State
	switch r.op {
	case OpAnd, OpNand:
		switch {
		case r.effFalse > 0:
			s = False
		case r.effUnk > 0:
			s = Unknown
		default:
			s = True
		}
	case OpOr, OpNor:
		switch {
		case r.effTrue > 0:
			s = True
		case r.effUnk > 0:
			s = Unknown
		default:
			s = False
		}
	default: // leaf records have no op; state is set directly
		return r.state
	}
	if r.op == OpNand || r.op == OpNor {
		s = effective(s, true)
	}
	return s
}

// decided reports whether the record's value can never change again:
// either a dominant parent is permanent, or all parents are permanent.
func (r *record) decided() bool {
	switch r.op {
	case OpAnd, OpNand:
		if r.permFalse > 0 {
			return true
		}
	case OpOr, OpNor:
		if r.permTrue > 0 {
			return true
		}
	default:
		return r.permanent
	}
	return r.permTrue+r.permFalse+r.permUnk == r.nParents
}

// SetState sets the state of a leaf or external record and propagates the
// change through the graph. It fails on derived records (their state is
// a function of their parents) and on permanent records.
func (st *Store) SetState(ref Ref, s State) error {
	if err := st.lock(); err != nil {
		return err
	}
	r, err := st.getMut(ref)
	switch {
	case err != nil:
	case r.nParents > 0:
		err = fmt.Errorf("credrec: %v is derived; its state follows its parents", ref)
	case r.permanent:
		err = fmt.Errorf("credrec: %v is permanent", ref)
	}
	if err != nil {
		st.writeMu.Unlock()
		return err
	}
	st.transition(r, s, false)
	st.j.refOp(opSet, ref, uint64(s))
	return st.unlock()
}

// Invalidate makes a record permanently false: the credential is revoked
// and can never return (§4.6: "credential records representing facts
// that are false, and will always remain false, can be deleted"). The
// change cascades. Invalidate on a derived record is permitted — it is
// how an explicit revocation deletes a delegation record.
func (st *Store) Invalidate(ref Ref) error {
	return st.refOp(opInvalidate, ref, func(r *record) bool { st.transition(r, False, true); return true })
}

// MakePermanent freezes a record at its current state: the replay of a
// journal's opPermanent.
func (st *Store) MakePermanent(ref Ref) error {
	return st.refOp(opPermanent, ref, func(r *record) bool { st.transition(r, r.state, true); return true })
}

// refOp is the mutation whose only operand is a reference: resolve it,
// apply, and journal (opcode, ref) unless apply reports that it found
// nothing to change.
func (st *Store) refOp(opcode byte, ref Ref, apply func(*record) bool) error {
	if err := st.lock(); err != nil {
		return err
	}
	r, err := st.getMut(ref)
	if err != nil {
		st.writeMu.Unlock()
		return err
	}
	if apply(r) {
		st.j.refOp(opcode, ref)
	}
	return st.unlock()
}

// Apply writes what an authority says of records this store mirrors:
// each change sets its record's state, frozen when Permanent, and a
// permanent False is an invalidation. A derived record's state is its
// parents', as under SetState: a permanent False invalidates it, as
// Invalidate does, and any other change aimed at one is dropped, as a
// dangling reference's is. The batch is one critical section
// with one observer call, journaled as the entry-point
// operations that replay to it. A record that is swept, final or
// already there is left alone (a sticky permanent False must not be
// overwritten), so re-applying what the store holds journals nothing.
// Apply is taken past a fail-stopped journal: a dead store must still
// stop validating what its authority revoked, and what it holds only in
// memory is read back from the authority at recovery. It returns the
// journal failure that left a record short of stable storage.
func (st *Store) Apply(changes []Change) error {
	st.enter()
	for _, c := range changes {
		r, err := st.getMut(c.Ref)
		switch {
		case err != nil || r.permanent || (r.state == c.State && !c.Permanent):
			continue
		case c.Permanent && c.State == False:
			st.j.refOp(opInvalidate, c.Ref)
		case r.nParents > 0:
			continue
		default:
			if r.state != c.State {
				st.j.refOp(opSet, c.Ref, uint64(c.State))
			}
			if c.Permanent {
				st.j.refOp(opPermanent, c.Ref)
			}
		}
		st.transition(r, c.State, c.Permanent)
	}
	return st.unlock()
}

// transition applies a state/permanence change to r and recursively
// updates children via their counters. Caller holds writeMu and no
// shard lock; the reader-visible rewrite of each visited record is a
// single atomic publish, so the cascade costs no lock operations
// beyond writeMu itself (see the package comment's lock order).
// Notifications for Notify-flagged records are queued; public entry
// points hand them to the observer after unlocking.
func (st *Store) transition(r *record, s State, makePermanent bool) {
	if r.permanent {
		return
	}
	old := r.state
	if old == s && !makePermanent {
		return
	}
	r.state = s
	if makePermanent {
		r.permanent = true
	}
	r.publish()
	c := Change{Ref: r.ref, State: r.state, Permanent: r.permanent}
	if r.notify && st.onChange != nil {
		st.pending = append(st.pending, c)
	}
	if r.bridged && st.onBridge != nil {
		st.bridging = append(st.bridging, c)
	}
	for _, cl := range r.children {
		cr, err := st.getMut(cl.ref)
		if err != nil {
			continue
		}
		if cr.permanent {
			continue
		}
		oldEff := effective(old, cl.negated)
		newEff := effective(s, cl.negated)
		// The old contribution was counted while this parent was still
		// non-permanent; the new one carries the new permanence.
		cr.count(oldEff, -1, false)
		cr.count(newEff, +1, r.permanent)
		ns := cr.compute()
		nperm := cr.decided()
		if ns != cr.state || nperm {
			st.transition(cr, ns, nperm)
		}
	}
}

// enter takes writeMu for a mutation, waiting out a Snapshot barrier.
func (st *Store) enter() {
	st.writeMu.Lock()
	for st.j != nil && st.j.frozen {
		st.j.done.Wait()
	}
}

// lock is enter for the entry points: a journaled store whose journal
// has failed or closed refuses them, lock released.
func (st *Store) lock() error {
	st.enter()
	if st.j != nil {
		if err := st.j.refusal(); err != nil {
			st.writeMu.Unlock()
			return err
		}
	}
	return nil
}

// unlock leaves a mutation: it queues what the mutator staged for the
// committer, waits — under SyncAlways, with writeMu given up — until
// that is durable, releases writeMu and hands the mutation's own
// changes to the observer. No other mutation can take them, so the
// observer has run when the mutation returns. It returns the journal
// failure that left the record short of stable storage.
func (st *Store) unlock() error {
	var err error
	if j := st.j; j != nil && j.staged {
		j.enqueue()
		j.work.Signal()
		if j.policy == SyncAlways {
			for seq := j.seq; j.commit < seq && j.err == nil; {
				j.done.Wait()
			}
			err = j.err
		}
	}
	batch, f, fan, bridge := st.pending, st.onChange, st.bridging, st.onBridge
	st.pending, st.bridging = nil, nil
	st.writeMu.Unlock()
	// A SyncAlways wait gives writeMu up, so an observer may have been
	// removed since the changes were queued.
	if len(fan) > 0 && bridge != nil {
		bridge(fan)
	}
	if len(batch) > 0 && f != nil {
		f(batch)
	}
	return err
}

// unlockRef is unlock for allocators: a record that never became
// durable is reported as the zero Ref, which never resolves.
func (st *Store) unlockRef(ref Ref) Ref {
	if st.unlock() != nil {
		return Ref{}
	}
	return ref
}

// Lookup returns the record's current state. A dangling reference
// returns ErrDangling, which callers treat as permanently false.
func (st *Store) Lookup(ref Ref) (State, error) {
	sh := st.shardFor(ref.Index)
	sh.mu.RLock()
	r, err := sh.get(ref)
	sh.mu.RUnlock()
	if err != nil {
		return False, err
	}
	return State(r.sp.Load() &^ permBit), nil
}

// Valid reports whether the record exists and is currently true. This is
// the single check a server performs on each access (§4.6: "only a
// single credential record need be consulted to confirm an arbitrary
// number of facts"). It takes one shard read lock and nothing else, so
// validations proceed in parallel across cores.
func (st *Store) Valid(ref Ref) bool {
	s, err := st.Lookup(ref)
	return err == nil && s == True
}

// Flag setters. MarkDirectUse records that a certificate embeds the
// credential; MarkNotify that another service uses it; MarkAutoRevoke
// that it should be revoked if a parent exits its role (figure 4.7).
func (st *Store) MarkDirectUse(ref Ref) error {
	return st.setFlag(opDirectUse, ref, func(r *record) *bool { return &r.directUse })
}

// MarkNotify flags the record for cross-service change notification.
func (st *Store) MarkNotify(ref Ref) error {
	return st.setFlag(opNotify, ref, func(r *record) *bool { return &r.notify })
}

// MarkAutoRevoke flags the record for revocation on parent role exit.
func (st *Store) MarkAutoRevoke(ref Ref) error {
	return st.setFlag(opAutoRevoke, ref, func(r *record) *bool { return &r.autoRev })
}

// markBridged flags a record that a bridge on another shard mirrors: its
// transitions go to the fan-out (onBridge), not to the observer, and
// until it is final a sweep keeps it, as it keeps a record with
// children here.
func (st *Store) markBridged(ref Ref) error {
	return st.setFlag(opBridged, ref, func(r *record) *bool { return &r.bridged })
}

// setFlag sets one flag; setting a flag that is set changes nothing and
// journals nothing.
func (st *Store) setFlag(opcode byte, ref Ref, flag func(*record) *bool) error {
	return st.refOp(opcode, ref, func(r *record) bool {
		f := flag(r)
		if *f {
			return false
		}
		sh := st.shardFor(ref.Index)
		sh.mu.Lock()
		*f = true
		sh.mu.Unlock()
		return true
	})
}

// MarkSourceUnknown marks every external record from the given source as
// Unknown; used when a heartbeat from that source is missed (§4.10).
// The unknown state propagates to children and possibly other servers.
// It is journaled like any other mutation: skipping the suspicion
// machinery's bulk transitions would desynchronise recovered state from
// the live store.
func (st *Store) MarkSourceUnknown(source string) int {
	return st.sourceOp(opSourceUnknown, source, Unknown)
}

// MarkSourceFailsafe moves every non-permanent external record from the
// given source to False — NOT permanently: the fact may still hold, the
// holder simply cannot confirm it. This is the §6.8.4 fail-safe
// escalation beyond MarkSourceUnknown: after enough missed heartbeats
// the source is presumed failed and everything depending on it stops
// validating until a resync restores the true states. Records already
// False (or permanent) are skipped. The change cascades.
func (st *Store) MarkSourceFailsafe(source string) int {
	return st.sourceOp(opSourceFailsafe, source, False)
}

// sourceOp moves every non-permanent external record from source that
// is not already in state `to` there, and journals (opcode, source). A
// name is from what precedes its last '#', or all of it if it has none.
// Like Apply it is taken past a fail-stopped journal: its verdict is
// about a remote authority, and a restart derives it again.
func (st *Store) sourceOp(opcode byte, source string, to State) int {
	st.enter()
	n := 0
	for si := range st.shards {
		for _, sl := range st.shards[si].slots {
			r := sl.rec
			if r == nil || r.permanent || r.state == to {
				continue
			}
			from := r.external
			if cut := strings.LastIndexByte(from, '#'); cut >= 0 {
				from = from[:cut]
			}
			if from != source {
				continue
			}
			st.transition(r, to, false)
			n++
		}
	}
	if st.j != nil {
		st.j.op(opcode).PutString(source)
	}
	st.unlock()
	return n
}

// Resolve returns the record's current state and permanence with a
// single lock-free load (the resync responder's read). A dangling
// reference reports (False, permanent): the fact was revoked and swept.
func (st *Store) Resolve(ref Ref) (State, bool, error) {
	sh := st.shardFor(ref.Index)
	sh.mu.RLock()
	r, err := sh.get(ref)
	sh.mu.RUnlock()
	if err != nil {
		return False, true, err
	}
	v := r.sp.Load()
	return State(v &^ permBit), v&permBit != 0, nil
}

// Externals visits every live external record with its name and whether
// its value is final. visit runs once the walk is over, with no lock
// held: a record's reference and name never change once it is in the
// table.
func (st *Store) Externals(visit func(ref Ref, name string, final bool)) {
	var found []*record
	for si := range st.shards {
		sh := &st.shards[si]
		sh.mu.RLock()
		for _, sl := range sh.slots {
			if r := sl.rec; r != nil && r.external != "" {
				found = append(found, r)
			}
		}
		sh.mu.RUnlock()
	}
	for _, r := range found {
		visit(r.ref, r.external, r.sp.Load()&permBit != 0)
	}
}

// Sweep garbage-collects (§4.8): it unlinks parent→child edges (and
// bridges) from permanent records and deletes records that are
// permanent-and-false, or uninteresting (no direct use, no notify flag,
// no children, no bridge). It returns
// the number of records deleted. Slot reuse is deterministic, so a
// journaled sweep replays to the same free list.
func (st *Store) Sweep() int {
	if st.lock() != nil {
		return 0
	}
	deleted := 0
	for si := range st.shards {
		sh := &st.shards[si]
		sh.mu.Lock()
		for p := range sh.slots {
			r := sh.slots[p].rec
			if r == nil {
				continue
			}
			if r.permanent {
				// Children's counters already carry this record's final
				// contribution; the links are redundant.
				r.children, r.bridged = nil, false
			}
			uninteresting := !r.directUse && !r.notify && !r.bridged && len(r.children) == 0
			if (r.permanent && r.state == False) || (uninteresting && r.permanent) || (uninteresting && r.nParents == 0 && r.external == "" && r.state == False) {
				sh.slots[p].rec = nil
				sh.free = append(sh.free, uint32(p*numShards+si))
				st.totalFree++
				deleted++
				st.deleted.Add(1)
			}
		}
		sh.mu.Unlock()
	}
	if st.j != nil {
		st.j.op(opSweep)
	}
	st.unlock()
	return deleted
}

// Image renders every live record as one text line in global index
// order: a deterministic fingerprint of the store's entire state. Two
// stores that evolved through the same logical history — an original
// and its journal replay, or peers that have resynchronised — produce
// byte-identical images; the chaos and persistence suites compare them
// directly.
func (st *Store) Image() []byte {
	st.writeMu.Lock()
	defer st.writeMu.Unlock()
	maxSlots := 0
	for si := range st.shards {
		if n := len(st.shards[si].slots); n > maxSlots {
			maxSlots = n
		}
	}
	var b bytes.Buffer
	// Global index p*numShards+si ascends with p outer, si inner.
	for p := 0; p < maxSlots; p++ {
		for si := 0; si < numShards; si++ {
			sh := &st.shards[si]
			if p >= len(sh.slots) || sh.slots[p].rec == nil {
				continue
			}
			r := sh.slots[p].rec
			flags := ""
			if r.notify {
				flags += "n"
			}
			if r.directUse {
				flags += "d"
			}
			if r.autoRev {
				flags += "a"
			}
			if r.bridged {
				flags += "b"
			}
			fmt.Fprintf(&b, "%s op=%d state=%s perm=%t ext=%q flags=%q parents=%d children=%d\n",
				r.ref, r.op, r.state, r.permanent, r.external, flags, r.nParents, len(r.children))
		}
	}
	return b.Bytes()
}

// Vars reports the store's counters: records "created" and "deleted"
// (swept) over its life, recovery included.
func (st *Store) Vars() expvar.Var {
	return expvar.Func(func() any { return map[string]uint64{"created": st.created.Load(), "deleted": st.deleted.Load()} })
}

// Live reports the number of live records (for tests and benchmarks).
func (st *Store) Live() int {
	n := 0
	for si := range st.shards {
		sh := &st.shards[si]
		sh.mu.RLock()
		for _, sl := range sh.slots {
			if sl.rec != nil {
				n++
			}
		}
		sh.mu.RUnlock()
	}
	return n
}
