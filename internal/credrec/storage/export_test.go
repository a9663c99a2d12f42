package storage

// Knobs and probes of the in-memory backend only this package's tests
// use.

// FailWrites arms write-failure injection: the next segment write
// persists only partial bytes and fails; all writes after it fail
// outright. The store above fail-stops on the first error.
func (m *Memory) FailWrites(partial int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failWrites = true
	m.failPartial = partial
}

// FailNextCreateSegment makes the next CreateSegment fail, modelling an
// IO error at the segment-roll point of a snapshot.
func (m *Memory) FailNextCreateSegment() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failCreate = true
}

// SegmentBytes reports segment n's total and synced byte counts (for
// tests).
func (m *Memory) SegmentBytes(n uint64) (total, synced int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.segs[n]; ok {
		return len(s.data), s.synced
	}
	return 0, 0
}
