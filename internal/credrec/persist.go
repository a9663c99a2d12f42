package credrec

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"

	"oasis/internal/bus"
)

// Persistent credential records (§4.8 / [Lo94 6.4]): the (index, magic)
// reference scheme works unchanged for records kept in stable storage.
// LoggedStore wraps a Store and journals every mutation as one binary
// record (journal.go); Replay re-executes a journal to rebuild an
// identical store — identical including the references themselves,
// because allocation is deterministic in the operation order.
// Certificates issued before a crash therefore validate correctly
// after recovery, and revocations performed before the crash stay
// revoked.
//
// # Group commit
//
// Durability is decoupled from application. A mutator, under ls.mu,
// applies the operation to the in-memory store and appends the encoded
// record to a commit queue; a single committer goroutine drains the
// queue, writes the whole batch to the sink with one Write, and issues
// at most one Sync per batch. N concurrent mutators therefore pay ~1
// flush+fsync between them instead of N — the classic group commit.
// What a mutator's return means depends on the SyncPolicy:
//
//	SyncAlways  the record is on stable storage when the call returns
//	            (the call blocks until the committer's fsync covers it;
//	            concurrent callers share one fsync)
//	SyncBatched the record is queued; the committer fsyncs once per
//	            drained batch, so the window of loss is one batch
//	SyncNone    the committer writes but never syncs; durability is
//	            whenever the OS gets to it
//
// The apply-then-enqueue pair runs under one mutex, so concurrent
// mutators cannot interleave an apply order different from the journal
// order — replaying the journal at any instant reproduces the store
// exactly, even while a revocation cascade is in flight on another
// goroutine. The one restriction that buys: a change callback
// (Store.OnChange) must not mutate the same LoggedStore re-entrantly,
// since the triggering mutation still holds the journal lock when
// callbacks fire.
//
// # Failure mode
//
// A journal write or sync failure makes the store fail-stop: the first
// error is sticky, every subsequent mutation is refused before it
// touches the in-memory store (error-returning methods return the
// journal error; allocators return the zero Ref, which never
// resolves), and Err/Sync report it. Without this, a failed write
// would leave the store mutated but the operation unjournaled — a
// recovery that silently forgets a revocation.

// SyncPolicy selects when the committer makes journal batches durable.
type SyncPolicy int

// Commit durability policies.
const (
	SyncBatched SyncPolicy = iota // one Sync per drained batch (default)
	SyncAlways                    // mutators block until their record is synced
	SyncNone                      // never Sync; the OS decides
)

// String names the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncBatched:
		return "batched"
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("syncpolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses the -sync flag spelling of a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "batched":
		return SyncBatched, nil
	case "always":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	default:
		return 0, fmt.Errorf("credrec: unknown sync policy %q (want always, batched or none)", s)
	}
}

// JournalSink is the durable destination of committed batches. File
// segments (internal/credrec/storage) implement Sync as fsync; plain
// io.Writer sinks are adapted with a no-op Sync.
type JournalSink interface {
	io.Writer
	Sync() error
}

// writerSink adapts any io.Writer into a JournalSink.
type writerSink struct{ w io.Writer }

func (s writerSink) Write(p []byte) (int, error) { return s.w.Write(p) }

// Sync forwards to the writer if it can sync, else does nothing.
func (s writerSink) Sync() error {
	if f, ok := s.w.(interface{ Sync() error }); ok {
		return f.Sync()
	}
	return nil
}

// JournalOptions configure a LoggedStore's commit pipeline.
type JournalOptions struct {
	// Sync is the durability policy (default SyncBatched).
	Sync SyncPolicy
	// OnCommit, if set, observes each committed batch (records and
	// bytes written). It runs on the committer goroutine after the
	// batch is durable and must not block or call back into the store's
	// mutation/Snapshot surface; the storage engine uses it to trigger
	// snapshots.
	OnCommit func(records, bytes int)
}

// ErrStoreClosed is returned by mutations on a closed LoggedStore.
var ErrStoreClosed = errors.New("credrec: logged store is closed")

// LoggedStore journals mutations of an underlying Store with group
// commit; see the package comment above.
type LoggedStore struct {
	*Store

	mu       sync.Mutex
	condWork sync.Cond // committer waits: queue non-empty or closed
	condDone sync.Cond // mutators/Sync wait: commit advanced

	sink   JournalSink
	policy SyncPolicy
	onCmt  func(records, bytes int)

	queue  []byte // encoded frames awaiting commit (guarded by mu)
	spare  []byte // recycled batch buffer
	seq    uint64 // records enqueued
	commit uint64 // records handed to the sink (synced per policy)
	err    error  // sticky journal failure
	closed bool

	scratch bytes.Buffer // payload staging, guarded by mu
	enc     *bus.WireEnc

	committerDone chan struct{}
}

// NewLoggedStore wraps an empty store with a journal writer using the
// default SyncBatched policy. Wrapping a non-empty store would
// desynchronise replay; recovered stores use NewLoggedStoreWith.
func NewLoggedStore(w io.Writer) *LoggedStore {
	return NewLoggedStoreWith(NewStore(), writerSink{w}, JournalOptions{})
}

// NewLoggedStoreWith wraps st — empty, or freshly rebuilt by
// ReadSnapshot/ReplayInto — with a journal sink. The sink must be
// positioned so that st's state plus the records appended from now on
// replays to the store's future states (a new segment, for the storage
// engine). The committer goroutine runs until Close.
func NewLoggedStoreWith(st *Store, sink JournalSink, opts JournalOptions) *LoggedStore {
	ls := &LoggedStore{
		Store:         st,
		sink:          sink,
		policy:        opts.Sync,
		onCmt:         opts.OnCommit,
		committerDone: make(chan struct{}),
	}
	ls.condWork.L = &ls.mu
	ls.condDone.L = &ls.mu
	ls.enc = bus.NewWireEnc(&ls.scratch)
	go ls.committer()
	return ls
}

// committer drains the commit queue: one Write and at most one Sync
// per batch, regardless of how many mutators contributed records.
func (ls *LoggedStore) committer() {
	defer close(ls.committerDone)
	for {
		ls.mu.Lock()
		for len(ls.queue) == 0 && !ls.closed {
			ls.condWork.Wait()
		}
		if len(ls.queue) == 0 { // closed and drained
			ls.mu.Unlock()
			return
		}
		batch := ls.queue
		target := ls.seq
		recs := int(target - ls.commit)
		ls.queue = ls.spare[:0]
		ls.spare = nil
		sink := ls.sink
		ls.mu.Unlock()

		var werr error
		if _, werr = sink.Write(batch); werr == nil && ls.policy != SyncNone {
			werr = sink.Sync()
		}

		ls.mu.Lock()
		ls.commit = target
		if werr != nil && ls.err == nil {
			ls.err = werr
		}
		ls.spare = batch[:0]
		done := ls.err
		ls.condDone.Broadcast()
		ls.mu.Unlock()

		if ls.onCmt != nil && done == nil {
			ls.onCmt(recs, len(batch))
		}
	}
}

// enqueueLocked frames the staged payload onto the commit queue; the
// caller holds ls.mu and has already applied the operation.
func (ls *LoggedStore) enqueueLocked() uint64 {
	ls.queue = appendRecord(ls.queue, ls.scratch.Bytes())
	ls.seq++
	ls.condWork.Signal()
	return ls.seq
}

// waitLocked blocks (policy SyncAlways) until record seq is durable.
func (ls *LoggedStore) waitLocked(seq uint64) error {
	if ls.policy != SyncAlways {
		return nil
	}
	for ls.commit < seq && ls.err == nil {
		ls.condDone.Wait()
	}
	return ls.err
}

// refuseLocked reports why mutations are currently rejected.
func (ls *LoggedStore) refuseLocked() error {
	if ls.err != nil {
		return fmt.Errorf("credrec: store is fail-stopped: %w", ls.err)
	}
	if ls.closed {
		return ErrStoreClosed
	}
	return nil
}

// Err returns the sticky journal failure, if any.
func (ls *LoggedStore) Err() error {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.err
}

// Sync blocks until every enqueued record has been written (and, for
// policies other than SyncNone, synced), returning the sticky error.
func (ls *LoggedStore) Sync() error {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	target := ls.seq
	for ls.commit < target && ls.err == nil {
		ls.condDone.Wait()
	}
	return ls.err
}

// Close drains the queue, stops the committer and marks the store
// closed; further mutations return ErrStoreClosed. The underlying
// store remains readable.
func (ls *LoggedStore) Close() error {
	ls.mu.Lock()
	if ls.closed {
		ls.mu.Unlock()
		<-ls.committerDone
		return ls.Err()
	}
	ls.closed = true
	ls.condWork.Broadcast()
	ls.mu.Unlock()
	<-ls.committerDone
	return ls.Err()
}

// Snapshot runs f with the journal fully drained, no mutation in
// flight and the committer idle: f sees a store state that the sink's
// contents replay to exactly, so it can copy the journal, write a
// Store snapshot, or swap the sink (SetSink) to roll a segment. A torn
// copy taken mid-mutation would journal an allocation whose cascade it
// missed; the barrier makes that impossible.
func (ls *LoggedStore) Snapshot(f func()) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	for ls.commit < ls.seq && ls.err == nil {
		ls.condDone.Wait()
	}
	f()
}

// SetSink redirects subsequent commits to a new sink. It must only be
// called from within a Snapshot barrier (the committer is idle there),
// by the storage engine when it rolls journal segments.
func (ls *LoggedStore) SetSink(s JournalSink) { ls.sink = s }

// Pending reports the number of enqueued-but-uncommitted records (for
// tests and engine introspection).
func (ls *LoggedStore) Pending() int {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return int(ls.seq - ls.commit)
}

// ---- journaled mutations ----

// NewFact journals and performs. On a fail-stopped or closed store it
// performs nothing and returns the zero Ref (which never resolves).
func (ls *LoggedStore) NewFact(s State) Ref {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.refuseLocked() != nil {
		return Ref{}
	}
	ref := ls.Store.NewFact(s)
	ls.scratch.Reset()
	ls.enc.PutByte(opFact)
	ls.enc.PutUvarint(uint64(s))
	if ls.waitLocked(ls.enqueueLocked()) != nil {
		return Ref{} // SyncAlways: the record never became durable
	}
	return ref
}

// NewExternal journals and performs; zero Ref on a failed store.
func (ls *LoggedStore) NewExternal(source string, s State) Ref {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.refuseLocked() != nil {
		return Ref{}
	}
	ref := ls.Store.NewExternal(source, s)
	ls.scratch.Reset()
	ls.enc.PutByte(opExternal)
	ls.enc.PutString(source)
	ls.enc.PutUvarint(uint64(s))
	if ls.waitLocked(ls.enqueueLocked()) != nil {
		return Ref{} // SyncAlways: the record never became durable
	}
	return ref
}

// NewDerived journals and performs; zero Ref on a failed store.
func (ls *LoggedStore) NewDerived(op Op, parents ...Parent) Ref {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.refuseLocked() != nil {
		return Ref{}
	}
	ref := ls.Store.NewDerived(op, parents...)
	ls.scratch.Reset()
	ls.enc.PutByte(opDerived)
	ls.enc.PutUvarint(uint64(op))
	ls.enc.PutUvarint(uint64(len(parents)))
	for _, p := range parents {
		ls.enc.PutUvarint(p.Ref.Uint64())
		ls.enc.PutBool(p.Negated)
	}
	if ls.waitLocked(ls.enqueueLocked()) != nil {
		return Ref{} // SyncAlways: the record never became durable
	}
	return ref
}

// refOp performs apply(), journals (opcode, ref) on success, and — for
// SyncAlways — waits for durability.
func (ls *LoggedStore) refOp(opcode byte, ref Ref, apply func() error) error {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if err := ls.refuseLocked(); err != nil {
		return err
	}
	if err := apply(); err != nil {
		return err
	}
	ls.scratch.Reset()
	ls.enc.PutByte(opcode)
	ls.enc.PutUvarint(ref.Uint64())
	return ls.waitLocked(ls.enqueueLocked())
}

// SetState performs and, on success, journals.
func (ls *LoggedStore) SetState(ref Ref, s State) error {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if err := ls.refuseLocked(); err != nil {
		return err
	}
	if err := ls.Store.SetState(ref, s); err != nil {
		return err
	}
	ls.scratch.Reset()
	ls.enc.PutByte(opSet)
	ls.enc.PutUvarint(ref.Uint64())
	ls.enc.PutUvarint(uint64(s))
	return ls.waitLocked(ls.enqueueLocked())
}

// Invalidate performs and, on success, journals.
func (ls *LoggedStore) Invalidate(ref Ref) error {
	return ls.refOp(opInvalidate, ref, func() error { return ls.Store.Invalidate(ref) })
}

// MakePermanent performs and, on success, journals.
func (ls *LoggedStore) MakePermanent(ref Ref) error {
	return ls.refOp(opPermanent, ref, func() error { return ls.Store.MakePermanent(ref) })
}

// MarkDirectUse performs and, on success, journals.
func (ls *LoggedStore) MarkDirectUse(ref Ref) error {
	return ls.refOp(opDirectUse, ref, func() error { return ls.Store.MarkDirectUse(ref) })
}

// MarkNotify performs and, on success, journals.
func (ls *LoggedStore) MarkNotify(ref Ref) error {
	return ls.refOp(opNotify, ref, func() error { return ls.Store.MarkNotify(ref) })
}

// MarkAutoRevoke performs and, on success, journals.
func (ls *LoggedStore) MarkAutoRevoke(ref Ref) error {
	return ls.refOp(opAutoRevoke, ref, func() error { return ls.Store.MarkAutoRevoke(ref) })
}

// Sweep journals and performs: the garbage collector's slot reuse is
// deterministic, so replay reproduces the same free list. On a failed
// store it deletes nothing.
func (ls *LoggedStore) Sweep() int {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.refuseLocked() != nil {
		return 0
	}
	n := ls.Store.Sweep()
	ls.scratch.Reset()
	ls.enc.PutByte(opSweep)
	ls.waitLocked(ls.enqueueLocked())
	return n
}

// sourceOp journals (opcode, source) and performs.
func (ls *LoggedStore) sourceOp(opcode byte, source string, apply func() int) int {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.refuseLocked() != nil {
		return 0
	}
	n := apply()
	ls.scratch.Reset()
	ls.enc.PutByte(opcode)
	ls.enc.PutString(source)
	ls.waitLocked(ls.enqueueLocked())
	return n
}

// MarkSourceUnknown journals and performs, so the suspicion machinery's
// bulk transitions replay too; skipping them would desynchronise
// recovered state from the live store.
func (ls *LoggedStore) MarkSourceUnknown(source string) int {
	return ls.sourceOp(opSourceUnknown, source, func() int { return ls.Store.MarkSourceUnknown(source) })
}

// MarkSourceFailsafe journals and performs.
func (ls *LoggedStore) MarkSourceFailsafe(source string) int {
	return ls.sourceOp(opSourceFailsafe, source, func() int { return ls.Store.MarkSourceFailsafe(source) })
}
