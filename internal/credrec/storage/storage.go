// Package storage is the persistence engine for credential-record
// stores (docs/STORAGE.md): a pluggable Backend holding numbered
// journal segments and store snapshots, and an Engine that opens a
// backend, recovers the store (newest snapshot + tail-segment replay),
// journals new mutations through the credrec.Store's group commit,
// and periodically compacts — snapshot, roll to a fresh segment,
// delete everything the snapshot covers. Recovery cost is O(live
// records + tail), not O(history), and steady-state disk is bounded by
// the snapshot interval.
//
// Two backends ship: Memory (tests, crash simulation with a durability
// watermark) and Dir (one file per segment/snapshot, atomic snapshot
// install via rename).
package storage

import (
	"errors"
	"io"
)

// Segment is an open, appendable journal segment. Write receives whole
// commit batches (the store committer's framing); Sync makes
// everything written so far durable.
type Segment interface {
	io.Writer
	Sync() error
	Close() error
}

// Backend is a durable medium holding numbered journal segments and
// store snapshots. Segment numbers only grow; a snapshot numbered N
// covers segments 1..N completely, so recovery is snapshot N plus the
// segments above N, and everything at or below N is garbage.
//
// Implementations must make WriteSnapshot atomic: a snapshot either
// appears complete under its number or not at all (tmp file + rename
// for the Dir backend). Backends need not be goroutine-safe beyond
// one writer — the Engine serialises all mutating calls.
type Backend interface {
	// ListSegments returns the existing segment numbers in ascending
	// order.
	ListSegments() ([]uint64, error)
	// OpenSegment opens segment n for reading.
	OpenSegment(n uint64) (io.ReadCloser, error)
	// CreateSegment creates (or truncates) segment n for appending.
	CreateSegment(n uint64) (Segment, error)
	// TruncateSegment durably truncates segment n to size bytes. The
	// engine uses it during recovery to cut a torn tail off the crashed
	// segment, so a later recovery cannot mistake the tear for
	// mid-journal corruption; the bytes below size must be preserved.
	TruncateSegment(n uint64, size int64) error
	// RemoveSegment deletes segment n.
	RemoveSegment(n uint64) error

	// WriteSnapshot atomically installs a snapshot numbered n with the
	// bytes produced by write. On error nothing is installed.
	WriteSnapshot(n uint64, write func(io.Writer) error) error
	// LoadSnapshot opens the newest snapshot; ok is false when the
	// backend holds none.
	LoadSnapshot() (n uint64, r io.ReadCloser, ok bool, err error)
	// RemoveSnapshotsBelow deletes snapshots numbered strictly below n.
	RemoveSnapshotsBelow(n uint64) error

	// Close releases the backend.
	Close() error
}

// ErrEngineClosed is returned by operations on a closed Engine.
var ErrEngineClosed = errors.New("storage: engine is closed")
