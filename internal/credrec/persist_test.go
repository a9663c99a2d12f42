package credrec

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// drain forces the commit queue onto the sink so tests can read the
// journal bytes.
func drain(t *testing.T, ls *Store) {
	t.Helper()
	if err := ls.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestReplayReproducesStore(t *testing.T) {
	var journal bytes.Buffer
	ls := NewJournaledStore(&journal)
	defer ls.Close()

	login := ls.NewFact(True)
	deleg := ls.NewDerived(OpAnd, Of(login))
	group := ls.NewFact(True)
	member := ls.NewDerived(OpAnd, Of(login), Of(deleg), Of(group))
	if err := ls.MarkDirectUse(member); err != nil {
		t.Fatal(err)
	}
	if err := ls.SetState(group, False); err != nil {
		t.Fatal(err)
	}
	drain(t, ls)

	// "Crash" and recover.
	recovered, err := Replay(bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range []Ref{login, deleg, group, member} {
		want, werr := ls.Lookup(ref)
		got, gerr := recovered.Lookup(ref)
		if (werr == nil) != (gerr == nil) || got != want {
			t.Fatalf("ref %v: recovered %v/%v, want %v/%v", ref, got, gerr, want, werr)
		}
	}
	// Post-recovery mutations behave identically.
	if err := recovered.SetState(group, True); err != nil {
		t.Fatal(err)
	}
	if !recovered.Valid(member) {
		t.Fatal("recovered graph does not propagate")
	}
}

func TestReplayPreservesRevocation(t *testing.T) {
	var journal bytes.Buffer
	ls := NewJournaledStore(&journal)
	defer ls.Close()
	root := ls.NewFact(True)
	child := ls.NewDerived(OpAnd, Of(root))
	if err := ls.MarkDirectUse(child); err != nil {
		t.Fatal(err)
	}
	if err := ls.Invalidate(root); err != nil {
		t.Fatal(err)
	}
	drain(t, ls)
	recovered, err := Replay(bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Valid(child) {
		t.Fatal("revocation lost across recovery")
	}
	// Permanence too: the record cannot be resurrected.
	if err := recovered.SetState(root, True); err == nil {
		t.Fatal("permanent record mutable after recovery")
	}
}

func TestReplayPreservesSweepAllocation(t *testing.T) {
	// The GC's slot reuse is deterministic: references minted after a
	// sweep are identical in the recovered store, so certificates issued
	// post-sweep pre-crash still resolve.
	var journal bytes.Buffer
	ls := NewJournaledStore(&journal)
	defer ls.Close()
	a := ls.NewFact(True)
	if err := ls.Invalidate(a); err != nil {
		t.Fatal(err)
	}
	ls.Sweep()
	b := ls.NewFact(True) // reuses a's slot with bumped magic
	if err := ls.MarkDirectUse(b); err != nil {
		t.Fatal(err)
	}
	drain(t, ls)

	recovered, err := Replay(bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !recovered.Valid(b) {
		t.Fatal("post-sweep reference does not resolve after recovery")
	}
	if _, err := recovered.Lookup(a); err == nil {
		t.Fatal("swept reference resolves after recovery")
	}
}

// journalBytes runs ops on a fresh journaled store and returns the journal.
func journalBytes(t *testing.T, ops func(*Store)) []byte {
	t.Helper()
	var journal bytes.Buffer
	ls := NewJournaledStore(&journal)
	ops(ls)
	drain(t, ls)
	ls.Close()
	return append([]byte(nil), journal.Bytes()...)
}

func TestReplayTornTail(t *testing.T) {
	full := journalBytes(t, func(ls *Store) {
		a := ls.NewFact(True)
		ls.NewDerived(OpAnd, Of(a))
		_ = ls.Invalidate(a)
	})

	// Every strict prefix of the journal replays without error (the
	// torn final record is dropped), and applies at most the records
	// fully contained in the prefix.
	for cut := 1; cut < len(full); cut++ {
		st := NewStore()
		applied, torn, err := ReplayInto(st, bytes.NewReader(full[:cut]), false)
		if err != nil {
			t.Fatalf("cut=%d: replay failed: %v", cut, err)
		}
		if !torn && applied != recordCount(t, full[:cut]) {
			t.Fatalf("cut=%d: clean replay of a strict prefix applied %d records", cut, applied)
		}
	}

	// Strict mode refuses the same torn prefixes.
	st := NewStore()
	if _, _, err := ReplayInto(st, bytes.NewReader(full[:len(full)-1]), true); err == nil {
		t.Fatal("strict replay tolerated a torn tail")
	}
}

// recordCount parses frames without applying, for test assertions.
func recordCount(t *testing.T, journal []byte) int {
	t.Helper()
	jr := newJournalReader(bytes.NewReader(journal))
	n := 0
	for {
		if _, err := jr.next(); err != nil {
			return n
		}
		n++
	}
}

func TestReplayMidJournalCorruption(t *testing.T) {
	full := journalBytes(t, func(ls *Store) {
		a := ls.NewFact(True)
		b := ls.NewFact(True)
		_ = ls.MarkDirectUse(a)
		_ = ls.MarkDirectUse(b)
		_ = ls.Invalidate(a)
	})
	// Flip a CRC or payload byte of a non-final record: recovery must
	// fail loudly — committed operations follow the damage. (Frame
	// layout: uvarint len | crc32 | payload, so bytes 1..4 are record
	// one's checksum and the bytes after that its payload.)
	for _, pos := range []int{1, 2, 5, 6} {
		corrupt := append([]byte(nil), full...)
		corrupt[pos] ^= 0xff
		if _, err := Replay(bytes.NewReader(corrupt)); err == nil {
			t.Errorf("corruption at byte %d went undetected", pos)
		} else if !errors.Is(err, ErrJournalCorrupt) {
			t.Errorf("corruption at byte %d: error %v is not ErrJournalCorrupt", pos, err)
		}
	}

	// A zeroed length byte is structural corruption.
	zeroLen := append([]byte(nil), full...)
	zeroLen[0] = 0
	if _, err := Replay(bytes.NewReader(zeroLen)); !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("zero-length record: %v, want ErrJournalCorrupt", err)
	}

	// A corrupted length byte can swallow the rest of the stream as one
	// bogus over-long frame — at frame granularity that is
	// indistinguishable from a torn tail, which is exactly why the
	// engine replays every segment except the last in strict mode:
	// there it MUST fail.
	lenFlip := append([]byte(nil), full...)
	lenFlip[7] ^= 0xff // record two's length varint
	st := NewStore()
	if _, _, err := ReplayInto(st, bytes.NewReader(lenFlip), true); !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("strict replay of length-corrupted journal: %v, want ErrJournalCorrupt", err)
	}
}

// failingSink errors on the nth write; satellite regression for the
// silent write-error swallowing of the text journal (the old
// persist.go:42 Fprintf dropped errors on the floor).
type failingSink struct {
	mu     sync.Mutex
	writes int
	failAt int
	data   []byte
}

func (s *failingSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writes++
	if s.writes >= s.failAt {
		return 0, fmt.Errorf("disk on fire")
	}
	s.data = append(s.data, p...)
	return len(p), nil
}

func (s *failingSink) Sync() error { return nil }

func TestJournalWriteErrorFailStop(t *testing.T) {
	sink := &failingSink{failAt: 1}
	ls := NewStore()
	ls.StartJournal(sink, JournalOptions{Sync: SyncAlways})
	defer ls.Close()

	// The failing mutation surfaces the journal error (SyncAlways
	// blocks until the commit attempt).
	if err := ls.SetState(ls.NewFact(True), False); err == nil {
		t.Fatal("journal write failure not surfaced")
	}
	if ls.Sync() == nil {
		t.Fatal("sticky error not recorded")
	}

	// The store fail-stops: no further mutation is applied or queued.
	before := ls.Live()
	if ref := ls.NewFact(True); (ref != Ref{}) {
		t.Fatalf("allocation on a failed store returned live ref %v", ref)
	}
	if err := ls.SetState(Ref{}, True); err == nil {
		t.Fatal("mutation on a failed store succeeded")
	}
	if got := ls.Live(); got != before {
		t.Fatalf("failed store mutated: %d -> %d live records", before, got)
	}
	if err := ls.Sync(); err == nil {
		t.Fatal("Sync on a failed store reported success")
	}
}

// TestSyncAlwaysAllocatorFailureReturnsZeroRef pins the other half of
// the SyncAlways contract: the allocator whose own record fails to
// reach stable storage must not hand out a live Ref — the documented
// failure convention is the zero Ref, and a live Ref here would name a
// record that vanishes at the next recovery.
func TestSyncAlwaysAllocatorFailureReturnsZeroRef(t *testing.T) {
	sink := &failingSink{failAt: 2}
	ls := NewStore()
	ls.StartJournal(sink, JournalOptions{Sync: SyncAlways})
	defer ls.Close()
	if ref := ls.NewFact(True); (ref == Ref{}) {
		t.Fatal("healthy allocation returned the zero Ref")
	}
	// SyncAlways commits each mutation as its own batch, so this is the
	// second write — the failing one.
	if ref := ls.NewExternal("login", True); (ref != Ref{}) {
		t.Fatalf("allocator returned live ref %v for a record that never reached stable storage", ref)
	}
	if ls.Sync() == nil {
		t.Fatal("store did not fail-stop")
	}
	if ref := ls.NewDerived(OpAnd); (ref != Ref{}) {
		t.Fatalf("fail-stopped store allocated %v", ref)
	}
}

// errReader yields its bytes, then a device error instead of io.EOF.
type errReader struct {
	data []byte
	err  error
}

func (r *errReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestReplayReadErrorIsNotTorn: a genuine device read error mid-record
// must fail recovery loudly. Mapping it to a torn tail would silently
// drop committed — possibly acknowledged — records.
func TestReplayReadErrorIsNotTorn(t *testing.T) {
	full := journalBytes(t, func(ls *Store) {
		a := ls.NewFact(True)
		_ = ls.Invalidate(a)
	})
	devErr := errors.New("device read error")
	// End the readable bytes inside the final record's frame so the
	// failure lands in io.ReadFull — the path that used to map every
	// error to a torn tail.
	st := NewStore()
	applied, torn, err := ReplayInto(st, &errReader{data: full[:len(full)-2], err: devErr}, false)
	if torn {
		t.Fatalf("device error reported as torn tail (applied %d)", applied)
	}
	if !errors.Is(err, devErr) {
		t.Fatalf("replay error %v does not wrap the device error", err)
	}
}

func TestSyncAlwaysDurableOnReturn(t *testing.T) {
	sink := &failingSink{failAt: 1 << 30}
	ls := NewStore()
	ls.StartJournal(sink, JournalOptions{Sync: SyncAlways})
	defer ls.Close()
	ref := ls.NewFact(True)
	if err := ls.Invalidate(ref); err != nil {
		t.Fatal(err)
	}
	// With SyncAlways the journal bytes are on the sink before the
	// mutator returns — no Sync/drain needed.
	sink.mu.Lock()
	data := append([]byte(nil), sink.data...)
	sink.mu.Unlock()
	recovered, err := Replay(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if s, _, _ := recovered.Resolve(ref); s != False {
		t.Fatalf("revocation not durable at mutator return: state %v", s)
	}
}

// A change callback may mutate the journaled store it was fired from:
// the callback runs after the triggering mutation has left writeMu, and
// what it does is journaled as records of its own. The journal still
// replays to the live image.
func TestChangeCallbackMutatesJournaledStore(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncBatched, SyncAlways} {
		t.Run(policy.String(), func(t *testing.T) {
			sink := &failingSink{failAt: 1 << 30}
			ls := NewStore()
			ls.StartJournal(sink, JournalOptions{Sync: policy})
			defer ls.Close()
			watched := ls.NewFact(True)
			if err := ls.MarkNotify(watched); err != nil {
				t.Fatal(err)
			}
			mirror := ls.NewExternal("mirror", True)
			dep := ls.NewDerived(OpAnd, Of(mirror))
			calls := 0
			ls.OnChange(func(changes []Change) {
				calls++
				if len(changes) != 1 || changes[0].Ref != watched {
					t.Errorf("call %d reports %v, want one change of %v", calls, changes, watched)
					return
				}
				if err := ls.SetState(mirror, changes[0].State); err != nil {
					t.Errorf("re-entrant SetState: %v", err)
				}
				ls.NewFact(changes[0].State) // an allocation from inside the callback, too
			})
			done := make(chan error, 1)
			go func() { done <- ls.SetState(watched, False) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("a change callback that mutates its own store deadlocked")
			}
			if ls.Valid(dep) {
				t.Fatal("the callback's mutation did not cascade")
			}
			if calls != 1 {
				t.Fatalf("observer called %d times for one mutation of a watched record", calls)
			}
			drain(t, ls)
			sink.mu.Lock()
			data := append([]byte(nil), sink.data...)
			sink.mu.Unlock()
			recovered, err := Replay(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(recovered.Image(), ls.Image()) {
				t.Fatalf("journal does not replay to the live image:\n-- live --\n%s-- replayed --\n%s", ls.Image(), recovered.Image())
			}
		})
	}
}

func TestClosedStoreRefusesMutation(t *testing.T) {
	var journal bytes.Buffer
	ls := NewJournaledStore(&journal)
	ref := ls.NewFact(True)
	if err := ls.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ls.SetState(ref, False); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("mutation after Close: %v, want ErrStoreClosed", err)
	}
	if ref2 := ls.NewFact(True); (ref2 != Ref{}) {
		t.Fatal("allocation after Close returned a live ref")
	}
	// Reads still work.
	if !ls.Valid(ref) {
		t.Fatal("read path broken after Close")
	}
}

// Satellite regression: slot reuse must survive the snapshot boundary.
// A sweep frees slots, the snapshot captures the free list, and
// allocations journaled *after* the snapshot must mint identical
// references when replayed into the restored snapshot.
func TestSweepFreeListAcrossSnapshotBoundary(t *testing.T) {
	var journal bytes.Buffer
	ls := NewJournaledStore(&journal)
	defer ls.Close()

	var victims []Ref
	for i := 0; i < 40; i++ {
		victims = append(victims, ls.NewFact(True))
	}
	keep := ls.NewFact(True)
	if err := ls.MarkDirectUse(keep); err != nil {
		t.Fatal(err)
	}
	for _, v := range victims {
		if err := ls.Invalidate(v); err != nil {
			t.Fatal(err)
		}
	}
	ls.Sweep() // 40 slots onto the free lists

	// Snapshot at the sweep boundary; remember where the tail starts.
	var snap bytes.Buffer
	var tailOffset int
	ls.Snapshot(func() {
		if err := ls.WriteSnapshot(&snap); err != nil {
			t.Fatal(err)
		}
		tailOffset = journal.Len()
	})

	// Post-snapshot allocations reuse swept slots.
	var reused []Ref
	for i := 0; i < 48; i++ {
		reused = append(reused, ls.NewFact(True))
	}
	drain(t, ls)

	restored, err := ReadSnapshot(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReplayInto(restored, bytes.NewReader(journal.Bytes()[tailOffset:]), true); err != nil {
		t.Fatal(err)
	}
	for i, want := range reused {
		if got, err := restored.Lookup(want); err != nil || got != True {
			t.Fatalf("reused ref %d (%v) does not resolve after snapshot+tail recovery: %v %v", i, want, got, err)
		}
	}
	// Future allocation stays deterministic: the next mint matches.
	a, b := ls.NewFact(True), restored.NewFact(True)
	if a != b {
		t.Fatalf("allocation diverged after recovery: live %v vs recovered %v", a, b)
	}
	if !bytes.Equal(ls.Image(), restored.Image()) {
		t.Fatal("image diverged after post-recovery allocation")
	}
}

// Property: for random operation sequences, replaying the journal yields
// a store whose every live reference has the same state as the original.
func TestQuickReplayEquivalence(t *testing.T) {
	f := func(raw []byte) bool {
		var journal bytes.Buffer
		ls := NewJournaledStore(&journal)
		defer ls.Close()
		var refs []Ref
		refs = append(refs, ls.NewFact(True), ls.NewFact(True))
		for i := 0; i+1 < len(raw); i += 2 {
			op, sel := raw[i], raw[i+1]
			target := refs[int(sel)%len(refs)]
			switch op % 6 {
			case 0:
				refs = append(refs, ls.NewFact(State(1+int(sel)%3)))
			case 1:
				refs = append(refs, ls.NewDerived(OpAnd, Of(target)))
			case 2:
				_ = ls.SetState(target, State(1+int(sel)%3))
			case 3:
				_ = ls.Invalidate(target)
			case 4:
				_ = ls.MarkDirectUse(target)
			case 5:
				ls.Sweep()
			}
		}
		if err := ls.Sync(); err != nil {
			return false
		}
		recovered, err := Replay(bytes.NewReader(journal.Bytes()))
		if err != nil {
			return false
		}
		for _, r := range refs {
			want, werr := ls.Lookup(r)
			got, gerr := recovered.Lookup(r)
			if (werr == nil) != (gerr == nil) {
				return false
			}
			if werr == nil && got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestApplyIsOneMutation: an authority's batch is one mutation — one
// observer call listing every transition in order, a change already in
// place skipped — journaled as the entry-point operations that replay
// to the same store. Once the journal has failed, entry points are
// refused and Apply still reaches memory, reporting the failure.
func TestApplyIsOneMutation(t *testing.T) {
	sink := &failingSink{failAt: 1 << 30}
	ls := NewStore()
	ls.StartJournal(sink, JournalOptions{Sync: SyncAlways})
	defer ls.Close()
	var refs [4]Ref
	for i := range refs {
		refs[i] = ls.NewExternal("Issuer", Unknown)
		if err := ls.MarkNotify(refs[i]); err != nil {
			t.Fatal(err)
		}
	}
	a, b, c, d := refs[0], refs[1], refs[2], refs[3]
	var calls [][]Change
	ls.OnChange(func(changes []Change) { calls = append(calls, append([]Change(nil), changes...)) })

	batch := []Change{{a, True, false}, {b, False, true}, {c, True, true}, {d, Unknown, false}, {a, False, false}}
	if err := ls.Apply(batch); err != nil {
		t.Fatal(err)
	}
	want := []Change{{a, True, false}, {b, False, true}, {c, True, true}, {a, False, false}}
	if len(calls) != 1 || fmt.Sprint(calls[0]) != fmt.Sprint(want) {
		t.Fatalf("observer calls %v, want one listing %v", calls, want)
	}
	drain(t, ls)
	recovered, err := Replay(bytes.NewReader(sink.data))
	if err != nil {
		t.Fatal(err)
	}
	if got := recovered.Image(); !bytes.Equal(got, ls.Image()) {
		t.Fatalf("replay differs:\n%s\nwant\n%s", got, ls.Image())
	}

	sink.mu.Lock()
	sink.failAt = 0
	sink.mu.Unlock()
	if ref := ls.NewFact(True); ref != (Ref{}) {
		t.Fatalf("allocation on a failing journal returned %v", ref)
	}
	if err := ls.SetState(d, True); err == nil {
		t.Fatal("SetState on a failed store succeeded")
	}
	if err := ls.Apply([]Change{{d, False, true}, {b, True, true}}); err == nil {
		t.Fatal("Apply past a failed journal reported no failure")
	}
	if s, perm, _ := ls.Resolve(d); s != False || !perm {
		t.Fatalf("Apply past a failed journal left %v permanent=%v, want permanent False", s, perm)
	}
	if s, _, _ := ls.Resolve(b); s != False {
		t.Fatalf("Apply revived a permanent False: %v", s)
	}
	if n := ls.MarkSourceUnknown("Issuer"); n != 1 {
		t.Fatalf("MarkSourceUnknown past a failed journal moved %d records, want a's", n)
	}
}
