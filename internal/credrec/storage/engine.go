package storage

import (
	"expvar"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"oasis/internal/credrec"
)

// Options configure an Engine.
type Options struct {
	// Sync is the group-commit durability policy (credrec.SyncBatched
	// by default).
	Sync credrec.SyncPolicy
	// SnapshotEveryOps triggers a snapshot + compaction after this many
	// journaled operations since the last snapshot. Zero disables
	// automatic snapshots.
	SnapshotEveryOps int
	// SweepBeforeSnapshot runs a store Sweep before each snapshot, so
	// fully-revoked subgraphs are garbage-collected and never carried
	// into the image.
	SweepBeforeSnapshot bool
	// OnSnapshotError, if set, observes failures of automatic
	// snapshots (the engine keeps journaling; the next trigger
	// retries).
	OnSnapshotError func(error)
}

// Engine ties a Backend to a recovering, journaling credential store.
// Open performs recovery; Store returns the live, journaling store; the
// engine snapshots and compacts in the background per Options.
type Engine struct {
	be   Backend
	opts Options

	ls *credrec.Store

	mu     sync.Mutex // serialises snapshot/roll/close
	seg    Segment    // active segment (mutated only under mu)
	segNum uint64
	closed bool

	// snapshot trigger accounting (written by the committer's OnCommit
	// callback, read by the trigger loop)
	opsSince atomic.Int64

	snapCh chan struct{}
	done   chan struct{}
	wg     sync.WaitGroup

	vars expvar.Map // what Open rebuilt (Vars)
}

// Open recovers the store held by be — newest snapshot, then replay of
// every segment above it — and starts journaling new mutations to a
// fresh segment. A torn final record in the last segment (the
// footprint of a crash mid-append) is dropped; torn or corrupt data
// anywhere else fails recovery.
func Open(be Backend, opts Options) (*Engine, error) {
	e := &Engine{
		be:     be,
		opts:   opts,
		snapCh: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	for _, k := range []string{"snapshot", "segments", "records", "torn"} {
		e.vars.Add(k, 0)
	}

	snapNum, snapReader, haveSnap, err := be.LoadSnapshot()
	if err != nil {
		return nil, fmt.Errorf("storage: loading snapshot: %w", err)
	}
	var st *credrec.Store
	if haveSnap {
		st, err = credrec.ReadSnapshot(snapReader)
		snapReader.Close()
		if err != nil {
			return nil, fmt.Errorf("storage: snapshot %d: %w", snapNum, err)
		}
		e.vars.Add("snapshot", int64(snapNum))
	} else {
		st = credrec.NewStore()
	}

	segs, err := be.ListSegments()
	if err != nil {
		return nil, fmt.Errorf("storage: listing segments: %w", err)
	}
	// Segments the snapshot covers are garbage a crash prevented the
	// compactor from deleting; skip them (and finish the delete).
	var tail []uint64
	for _, n := range segs {
		if !haveSnap || n > snapNum {
			tail = append(tail, n)
		} else {
			_ = be.RemoveSegment(n)
		}
	}
	// Only the newest data-bearing segment may be torn: everything
	// below it was fully written before the next segment was opened.
	// An empty trailing segment (created by a snapshot whose install
	// crashed) is fine either way.
	tornAt := -1
	for i, n := range tail {
		r, err := be.OpenSegment(n)
		if err != nil {
			return nil, fmt.Errorf("storage: opening segment %d: %w", n, err)
		}
		applied, clean, torn, rerr := credrec.ReplayIntoOffset(st, r, false)
		r.Close()
		if rerr != nil {
			return nil, fmt.Errorf("storage: segment %d: %w", n, rerr)
		}
		if torn {
			if tornAt >= 0 {
				return nil, fmt.Errorf("storage: segment %d torn mid-journal: %w", tail[tornAt], credrec.ErrJournalCorrupt)
			}
			tornAt = i
			e.vars.Add("torn", 1)
			// Cut the tear off the medium. Without this, the next
			// recovery would see the (still torn) segment followed by a
			// data-bearing successor and refuse it as mid-journal
			// corruption — one crash plus one ordinary restart would
			// brick the store.
			if terr := be.TruncateSegment(n, clean); terr != nil {
				return nil, fmt.Errorf("storage: truncating torn segment %d: %w", n, terr)
			}
		} else if applied > 0 && tornAt >= 0 {
			return nil, fmt.Errorf("storage: segment %d torn mid-journal: %w", tail[tornAt], credrec.ErrJournalCorrupt)
		}
		e.vars.Add("records", int64(applied))
	}
	e.vars.Add("segments", int64(len(tail)))

	e.segNum = snapNum
	if len(segs) > 0 && segs[len(segs)-1] > e.segNum {
		e.segNum = segs[len(segs)-1]
	}
	e.segNum++
	seg, err := be.CreateSegment(e.segNum)
	if err != nil {
		return nil, fmt.Errorf("storage: creating segment %d: %w", e.segNum, err)
	}
	e.seg = seg

	e.ls = st
	st.StartJournal(seg, credrec.JournalOptions{
		Sync: opts.Sync,
		OnCommit: func(records, _ int) {
			e.opsSince.Add(int64(records))
			if e.due() {
				select {
				case e.snapCh <- struct{}{}:
				default:
				}
			}
		},
	})

	e.wg.Add(1)
	go e.snapshotLoop()
	return e, nil
}

// Store returns the live, journaling store.
func (e *Engine) Store() *credrec.Store { return e.ls }

// Vars reports what Open rebuilt, unpublished: the "snapshot" number
// used (0 if none), tail "segments" replayed, "records" applied from
// them, and "torn" 1 if a torn final record was dropped.
func (e *Engine) Vars() *expvar.Map { return &e.vars }

// due reports whether the snapshot trigger has tripped.
func (e *Engine) due() bool {
	return e.opts.SnapshotEveryOps > 0 && e.opsSince.Load() >= int64(e.opts.SnapshotEveryOps)
}

// snapshotLoop services automatic snapshot triggers.
func (e *Engine) snapshotLoop() {
	defer e.wg.Done()
	for {
		select {
		case <-e.done:
			return
		case <-e.snapCh:
			if !e.due() {
				continue
			}
			if err := e.Snapshot(); err != nil && err != ErrEngineClosed {
				if e.opts.OnSnapshotError != nil {
					e.opts.OnSnapshotError(err)
				}
			}
		}
	}
}

// Snapshot compacts now: quiesce the store, make the active segment
// durable, roll the journal to a fresh segment, write a snapshot
// covering everything before the roll, and delete the segments and
// snapshots the new image obsoletes. On failure nothing is deleted and
// the journal keeps running — on its old segment if the roll failed,
// on the new one if only the snapshot install did; either way recovery
// still replays every committed record.
func (e *Engine) Snapshot() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrEngineClosed
	}
	if e.opts.SweepBeforeSnapshot {
		e.ls.Sweep()
	}
	var err error
	e.ls.Snapshot(func() {
		cur := e.segNum
		// The snapshot will claim to cover segment cur completely; make
		// the claim true before anything is installed.
		if serr := e.seg.Sync(); serr != nil {
			err = fmt.Errorf("storage: syncing segment %d: %w", cur, serr)
			return
		}
		// Roll to the next segment BEFORE installing the snapshot. The
		// quiesced state corresponds to the end of cur either way, but
		// in the other order a failed roll would leave the journal
		// appending to a segment an installed snapshot claims to cover
		// — and the next recovery would delete those committed records.
		next := cur + 1
		seg, cerr := e.be.CreateSegment(next)
		if cerr != nil {
			err = fmt.Errorf("storage: creating segment %d: %w", next, cerr)
			return
		}
		_ = e.seg.Close()
		e.ls.SetSink(seg)
		e.seg = seg
		e.segNum = next
		if werr := e.be.WriteSnapshot(cur, func(w io.Writer) error {
			return e.ls.WriteSnapshot(w)
		}); werr != nil {
			// Harmless: no snapshot, so recovery replays segments
			// <= cur plus the new tail. opsSince keeps
			// accumulating, so the next trigger retries promptly.
			err = fmt.Errorf("storage: writing snapshot %d: %w", cur, werr)
			return
		}
		e.opsSince.Store(0)
		// GC: the snapshot supersedes everything at or below cur.
		if segs, lerr := e.be.ListSegments(); lerr == nil {
			for _, n := range segs {
				if n <= cur {
					_ = e.be.RemoveSegment(n)
				}
			}
		}
		_ = e.be.RemoveSnapshotsBelow(cur)
	})
	return err
}

// Close drains the journal, stops the background compactor, syncs the
// active segment and releases the backend.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()

	close(e.done)
	e.wg.Wait()

	err := e.ls.Close()
	if serr := e.seg.Sync(); err == nil && serr != nil {
		err = serr
	}
	if cerr := e.seg.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if berr := e.be.Close(); err == nil && berr != nil {
		err = berr
	}
	return err
}
