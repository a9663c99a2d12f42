package storage

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Memory is an in-memory Backend. Beyond serving tests and ephemeral
// deployments, it models crash durability precisely enough to drive
// the deterministic kill-point schedules in internal/fault: every
// segment keeps a synced watermark (advanced only by Sync), and
// Crash() yields a new backend holding exactly what a power loss would
// have preserved — synced bytes, plus an optional partial tail of the
// unsynced data to model a torn final write. Fault injection knobs
// make writes or snapshot installs fail on demand, deterministically.
type Memory struct {
	mu    sync.Mutex
	segs  map[uint64]*memSegment
	snaps map[uint64][]byte

	// failWrites, once set, makes every subsequent segment write fail
	// (after accepting failPartial bytes of the first failing write).
	failWrites  bool
	failPartial int
	// failSnapshot makes the next WriteSnapshot fail without
	// installing anything (a crash mid-snapshot: the tmp file is
	// never renamed).
	failSnapshot bool
	// failCreate makes the next CreateSegment fail (an IO error at the
	// segment-roll point of a snapshot).
	failCreate bool
}

type memSegment struct {
	data   []byte
	synced int
	closed bool
}

// NewMemory returns an empty in-memory backend.
func NewMemory() *Memory {
	return &Memory{segs: make(map[uint64]*memSegment), snaps: make(map[uint64][]byte)}
}

// FailNextSnapshot makes the next WriteSnapshot fail atomically: no
// snapshot is installed, modelling a crash before the install point.
func (m *Memory) FailNextSnapshot() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failSnapshot = true
}

// Crash returns the backend a recovery would see after a power loss:
// snapshots (installs are atomic) and each segment truncated to its
// synced watermark plus up to extra bytes of unsynced data — extra
// models the pages the OS happened to flush, so extra > 0 produces
// torn final records deterministically.
func (m *Memory) Crash(extra int) *Memory {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := NewMemory()
	for n, s := range m.segs {
		keep := s.synced + min(extra, len(s.data)-s.synced)
		c.segs[n] = &memSegment{data: append([]byte(nil), s.data[:keep]...), synced: keep}
	}
	for n, b := range m.snaps {
		c.snaps[n] = append([]byte(nil), b...)
	}
	return c
}

// ListSegments returns segment numbers in ascending order.
func (m *Memory) ListSegments() ([]uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]uint64, 0, len(m.segs))
	for n := range m.segs {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// OpenSegment opens segment n for reading.
func (m *Memory) OpenSegment(n uint64) (io.ReadCloser, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.segs[n]
	if !ok {
		return nil, fmt.Errorf("storage: no segment %d", n)
	}
	return io.NopCloser(bytes.NewReader(s.data)), nil
}

// CreateSegment creates segment n for appending.
func (m *Memory) CreateSegment(n uint64) (Segment, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failCreate {
		m.failCreate = false
		return nil, fmt.Errorf("storage: injected segment create failure")
	}
	s := &memSegment{}
	m.segs[n] = s
	return &memSegmentWriter{m: m, s: s}, nil
}

// TruncateSegment truncates segment n to size bytes.
func (m *Memory) TruncateSegment(n uint64, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.segs[n]
	if !ok {
		return fmt.Errorf("storage: no segment %d", n)
	}
	if size < int64(len(s.data)) {
		s.data = s.data[:size]
	}
	if int64(s.synced) > int64(len(s.data)) {
		s.synced = len(s.data)
	}
	return nil
}

// RemoveSegment deletes segment n.
func (m *Memory) RemoveSegment(n uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.segs, n)
	return nil
}

// WriteSnapshot installs a snapshot atomically (or not at all).
func (m *Memory) WriteSnapshot(n uint64, write func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failSnapshot {
		m.failSnapshot = false
		return fmt.Errorf("storage: injected snapshot failure")
	}
	m.snaps[n] = append([]byte(nil), buf.Bytes()...)
	return nil
}

// LoadSnapshot opens the newest snapshot.
func (m *Memory) LoadSnapshot() (uint64, io.ReadCloser, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var best uint64
	var found bool
	for n := range m.snaps {
		if !found || n > best {
			best, found = n, true
		}
	}
	if !found {
		return 0, nil, false, nil
	}
	return best, io.NopCloser(bytes.NewReader(m.snaps[best])), true, nil
}

// RemoveSnapshotsBelow deletes snapshots numbered strictly below n.
func (m *Memory) RemoveSnapshotsBelow(n uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k := range m.snaps {
		if k < n {
			delete(m.snaps, k)
		}
	}
	return nil
}

// Close releases the backend (a no-op for memory).
func (m *Memory) Close() error { return nil }

type memSegmentWriter struct {
	m *Memory
	s *memSegment
}

// Write appends to the segment, honouring injected failures.
func (w *memSegmentWriter) Write(p []byte) (int, error) {
	w.m.mu.Lock()
	defer w.m.mu.Unlock()
	if w.s.closed {
		return 0, fmt.Errorf("storage: write to closed segment")
	}
	if w.m.failWrites {
		keep := min(w.m.failPartial, len(p))
		w.m.failPartial = 0
		w.s.data = append(w.s.data, p[:keep]...)
		return keep, fmt.Errorf("storage: injected write failure")
	}
	w.s.data = append(w.s.data, p...)
	return len(p), nil
}

// Sync advances the durability watermark.
func (w *memSegmentWriter) Sync() error {
	w.m.mu.Lock()
	defer w.m.mu.Unlock()
	if w.m.failWrites {
		return fmt.Errorf("storage: injected sync failure")
	}
	w.s.synced = len(w.s.data)
	return nil
}

// Close marks the segment writer closed.
func (w *memSegmentWriter) Close() error {
	w.m.mu.Lock()
	defer w.m.mu.Unlock()
	w.s.closed = true
	return nil
}
