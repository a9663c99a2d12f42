package credrec

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"oasis/internal/bus"
)

// Persistent credential records (§4.8 / [Lo94 6.4]): the (index, magic)
// reference scheme works unchanged for records kept in stable storage.
// A Store given a journal (StartJournal) writes every mutation as one
// binary record (journal.go); Replay re-executes a journal to rebuild
// an identical store — identical including the references themselves,
// because allocation is deterministic in the operation order.
// Certificates issued before a crash therefore validate correctly
// after recovery, and revocations performed before the crash stay
// revoked.
//
// # Group commit
//
// Durability is decoupled from application. A mutator, under the
// store's writeMu, applies the operation to the in-memory store and
// appends the encoded record to a commit queue; a single committer
// goroutine drains the queue, writes the whole batch to the sink with
// one Write, and issues at most one Sync per batch. N concurrent
// mutators therefore pay ~1 flush+fsync between them instead of N —
// the classic group commit. What a mutator's return means depends on
// the SyncPolicy:
//
//	SyncAlways  the record is on stable storage when the call returns
//	            (the call blocks until the committer's fsync covers it;
//	            concurrent callers share one fsync)
//	SyncBatched the record is queued; the committer fsyncs once per
//	            drained batch, so the window of loss is one batch
//	SyncNone    the committer writes but never syncs; durability is
//	            whenever the OS gets to it
//
// Apply and enqueue happen in one writeMu critical section — the lock
// that already serialises every mutation — so concurrent mutators
// cannot interleave an apply order different from the journal order:
// replaying the journal at any instant reproduces the store exactly,
// even while a revocation cascade is in flight on another goroutine.
// The SyncAlways wait and the change callbacks come after writeMu is
// released, so a callback may mutate the store it was fired from; what
// it does is journaled as records of its own, behind its cause.
//
// # Failure mode
//
// A journal write or sync failure makes the store fail-stop: the first
// error is sticky, every subsequent mutation is refused before it
// touches the in-memory store (error-returning methods return the
// journal error; allocators return the zero Ref, which never
// resolves), and Sync reports it. Without this, a failed write
// would leave the store mutated but the operation unjournaled — a
// recovery that silently forgets a revocation. Once failed, the
// committer writes nothing more: a later batch after a torn one would
// read back as mid-journal corruption.
//
// Two kinds of write pass a failed journal, into memory only: Apply,
// an authority's word about the records this store mirrors, and the
// source transitions (MarkSourceUnknown, MarkSourceFailsafe). What they
// hold is read back from the authority at recovery, and a store that
// refused them would go on validating what its authority revoked.

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

// JournalOptions configure a Store's commit pipeline.
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

// ErrStoreClosed is returned by mutations on a journaled Store after
// Close.
var ErrStoreClosed = errors.New("credrec: store is closed")

// journal is a Store's commit pipeline. Store.writeMu guards every
// field; both conditions wait on it.
type journal struct {
	work sync.Cond // committer waits: queue non-empty or closed
	done sync.Cond // mutators, Sync and Snapshot wait: commit advanced, barrier lifted

	sink   JournalSink
	policy SyncPolicy
	onCmt  func(records, bytes int)

	queue  []byte // encoded frames awaiting commit
	spare  []byte // recycled batch buffer
	seq    uint64 // records enqueued
	commit uint64 // records handed to the sink (synced per policy)
	err    error  // sticky journal failure
	closed bool
	frozen bool // a Snapshot barrier is up: mutators wait at lock

	// halt, when set, is a fail-stop latch shared with the sibling
	// shards of a ShardedStore: the first journal to fail trips it and
	// every shard refuses entry-point mutations from then on.
	halt *atomic.Pointer[error]

	scratch bytes.Buffer // payload of the record the current mutator staged
	enc     *bus.WireEnc
	staged  bool

	committerDone chan struct{}
}

// StartJournal gives st — empty, or freshly rebuilt by
// ReadSnapshot/ReplayIntoOffset — its commit pipeline, before the store is
// shared. The sink must be positioned so that st's state plus the
// records appended from now on replays to the store's future states (a
// new segment, for the storage engine). The committer goroutine runs
// until Close.
func (st *Store) StartJournal(sink JournalSink, opts JournalOptions) {
	j := &journal{
		sink:          sink,
		policy:        opts.Sync,
		onCmt:         opts.OnCommit,
		committerDone: make(chan struct{}),
	}
	j.work.L = &st.writeMu
	j.done.L = &st.writeMu
	j.enc = bus.NewWireEnc(&j.scratch)
	st.writeMu.Lock()
	if st.j != nil {
		panic("credrec: StartJournal on a store that already has a journal")
	}
	st.j = j
	st.writeMu.Unlock()
	go st.committer(j)
}

// committer drains the commit queue: one Write and at most one Sync
// per batch, regardless of how many mutators contributed records.
func (st *Store) committer(j *journal) {
	defer close(j.committerDone)
	for {
		st.writeMu.Lock()
		for len(j.queue) == 0 && !j.closed {
			j.work.Wait()
		}
		if len(j.queue) == 0 { // closed and drained
			st.writeMu.Unlock()
			return
		}
		batch := j.queue
		target := j.seq
		recs := int(target - j.commit)
		j.queue = j.spare[:0]
		j.spare = nil
		sink, werr := j.sink, j.err
		st.writeMu.Unlock()

		// The Sync keeps this goroutine's thread, and its P until the
		// runtime hands the P off; oasisd gives a daemon whose journal
		// syncs a spare P for it (docs/STORAGE.md).
		if werr == nil {
			if _, werr = sink.Write(batch); werr == nil && j.policy != SyncNone {
				werr = sink.Sync()
			}
		}

		st.writeMu.Lock()
		j.commit = target
		if werr != nil && j.err == nil {
			j.err = werr
			if j.halt != nil {
				first := werr // a copy: taking werr's address would heap-allocate it every batch
				j.halt.CompareAndSwap(nil, &first)
			}
		}
		j.spare = batch[:0]
		j.done.Broadcast()
		st.writeMu.Unlock()

		if j.onCmt != nil && werr == nil {
			j.onCmt(recs, len(batch))
		}
	}
}

// op starts a journal record of the mutation being applied: it stages
// the opcode and returns the encoder for the operands. What is staged
// is queued when the next record starts, or at unlock. Caller holds
// writeMu.
func (j *journal) op(opcode byte) *bus.WireEnc {
	j.enqueue()
	j.scratch.Reset()
	j.enc.PutByte(opcode)
	j.staged = true
	return j.enc
}

// refOp stages an (opcode, ref, operands...) record, if there is a
// journal to stage it in.
func (j *journal) refOp(opcode byte, ref Ref, operands ...uint64) {
	if j == nil {
		return
	}
	e := j.op(opcode)
	e.PutUvarint(ref.Uint64())
	for _, u := range operands {
		e.PutUvarint(u)
	}
}

// enqueue frames the staged record, if any, onto the commit queue. A
// failed or closed journal takes nothing more: what a forced mutation
// stages there stays in memory.
func (j *journal) enqueue() {
	if j.staged && j.err == nil && !j.closed {
		j.queue = appendRecord(j.queue, j.scratch.Bytes())
		j.seq++
	}
	j.staged = false
}

// refusal reports why entry-point mutations are currently rejected.
// Caller holds writeMu.
func (j *journal) refusal() error {
	err := j.err
	if err == nil && j.halt != nil {
		if p := j.halt.Load(); p != nil {
			err = *p
		}
	}
	if err != nil {
		return fmt.Errorf("credrec: store is fail-stopped: %w", err)
	}
	if j.closed {
		return ErrStoreClosed
	}
	return nil
}

// WaitsForDisk reports whether a mutation waits until its record is
// on stable storage: the store journals under SyncAlways.
func (st *Store) WaitsForDisk() bool {
	st.writeMu.Lock()
	defer st.writeMu.Unlock()
	return st.j != nil && st.j.policy == SyncAlways
}

// Sync blocks until every enqueued record has been written (and, for
// policies other than SyncNone, synced), returning the sticky error.
// Without a journal there is nothing to wait for.
func (st *Store) Sync() error {
	st.writeMu.Lock()
	defer st.writeMu.Unlock()
	j := st.j
	if j == nil {
		return nil
	}
	for target := j.seq; j.commit < target && j.err == nil; {
		j.done.Wait()
	}
	return j.err
}

// Close drains a journaled store's queue, stops the committer and marks
// the store closed; further mutations return ErrStoreClosed. The store
// remains readable.
func (st *Store) Close() error {
	st.writeMu.Lock()
	j := st.j
	j.closed = true
	j.work.Broadcast()
	st.writeMu.Unlock()
	<-j.committerDone
	return st.Sync()
}

// Snapshot runs f with a journaled store's journal fully drained, no
// mutation in flight and the committer idle: f sees a store state that
// the sink's contents replay to exactly, so it can copy the journal, write a
// Store snapshot, or swap the sink (SetSink) to roll a segment. A torn
// copy taken mid-mutation would journal an allocation whose cascade it
// missed; the barrier makes that impossible. Mutators that arrive
// while f runs wait for it; f itself may read the store (Image,
// WriteSnapshot) but must not mutate it.
func (st *Store) Snapshot(f func()) {
	st.writeMu.Lock()
	j := st.j
	for j.frozen {
		j.done.Wait()
	}
	j.frozen = true
	for j.commit < j.seq && j.err == nil {
		j.done.Wait()
	}
	st.writeMu.Unlock()
	defer func() {
		st.writeMu.Lock()
		j.frozen = false
		j.done.Broadcast()
		st.writeMu.Unlock()
	}()
	f()
}

// SetSink redirects subsequent commits to a new sink. It must only be
// called from within a Snapshot barrier (the committer is idle there),
// by the storage engine when it rolls journal segments.
func (st *Store) SetSink(s JournalSink) {
	st.writeMu.Lock()
	st.j.sink = s
	st.writeMu.Unlock()
}
