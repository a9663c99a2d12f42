package storage

import (
	"bytes"
	"errors"
	"os"
	"testing"
	"time"

	"oasis/internal/credrec"
)

// populate runs a representative workload and returns the refs a
// client would still hold (certificates in the wild).
func populate(ls *credrec.Store) (kept, revoked []credrec.Ref) {
	for i := 0; i < 8; i++ {
		root := ls.NewFact(credrec.True)
		member := ls.NewDerived(credrec.OpAnd, credrec.Of(root))
		_ = ls.MarkDirectUse(member)
		if i%2 == 0 {
			_ = ls.Invalidate(root)
			revoked = append(revoked, member)
		} else {
			kept = append(kept, member)
		}
	}
	return kept, revoked
}

func checkRecovered(t *testing.T, ls *credrec.Store, kept, revoked []credrec.Ref) {
	t.Helper()
	for _, r := range kept {
		if !ls.Valid(r) {
			t.Fatalf("kept ref %v invalid after recovery", r)
		}
	}
	for _, r := range revoked {
		if ls.Valid(r) {
			t.Fatalf("revoked ref %v valid after recovery", r)
		}
	}
}

func TestEngineRecoverFromJournalOnly(t *testing.T) {
	be := NewMemory()
	e, err := Open(be, Options{Sync: credrec.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	kept, revoked := populate(e.Store())
	img := e.Store().Image()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(be, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if snap, segs, recs, torn := e2.Recovered(); snap != 0 || segs == 0 || recs == 0 || torn {
		t.Fatalf("Recovered() = %d %d %d %v, want journal-only recovery", snap, segs, recs, torn)
	}
	if !bytes.Equal(e2.Store().Image(), img) {
		t.Fatal("journal-only recovery image differs")
	}
	checkRecovered(t, e2.Store(), kept, revoked)
}

func TestEngineSnapshotCompactsAndRecovers(t *testing.T) {
	be := NewMemory()
	e, err := Open(be, Options{Sync: credrec.SyncAlways, SweepBeforeSnapshot: true})
	if err != nil {
		t.Fatal(err)
	}
	kept, revoked := populate(e.Store())
	if err := e.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Compaction deleted the old segment and rolled to a new one.
	segs, _ := be.ListSegments()
	if len(segs) != 1 || segs[0] != 2 {
		t.Fatalf("segments after snapshot = %v, want [2]", segs)
	}
	// Post-snapshot tail.
	tailRef := e.Store().NewFact(credrec.True)
	if err := e.Store().MarkDirectUse(tailRef); err != nil {
		t.Fatal(err)
	}
	img := e.Store().Image()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(be, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	snap, nsegs, recs, torn := e2.Recovered()
	if snap != 1 || torn {
		t.Fatalf("Recovered() = %d %d %d %v, want snapshot 1, no tear", snap, nsegs, recs, torn)
	}
	if recs != 2 {
		t.Fatalf("replayed %d tail records, want 2 (the post-snapshot ops)", recs)
	}
	if !bytes.Equal(e2.Store().Image(), img) {
		t.Fatal("snapshot+tail recovery image differs")
	}
	checkRecovered(t, e2.Store(), kept, revoked)
	if !e2.Store().Valid(tailRef) {
		t.Fatal("post-snapshot tail ref lost")
	}
}

func TestEngineAutoSnapshotTrigger(t *testing.T) {
	be := NewMemory()
	e, err := Open(be, Options{Sync: credrec.SyncAlways, SnapshotEveryOps: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 100; i++ {
		e.Store().NewFact(credrec.True)
	}
	// The trigger is asynchronous: poll until the compactor has rolled
	// past the first segment.
	deadline := time.Now().Add(5 * time.Second)
	for {
		segs, _ := be.ListSegments()
		if len(segs) > 0 && segs[len(segs)-1] >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("automatic snapshot trigger never fired; segments = %v", segs)
		}
		time.Sleep(time.Millisecond)
	}
	// An explicit snapshot then leaves exactly one active segment.
	if err := e.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := be.ListSegments(); len(segs) != 1 {
		t.Fatalf("segments = %v, want exactly one after compaction", segs)
	}
}

func TestEngineMidSnapshotCrash(t *testing.T) {
	be := NewMemory()
	e, err := Open(be, Options{Sync: credrec.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	kept, revoked := populate(e.Store())
	img := e.Store().Image()

	// The snapshot install fails (crash before rename); the engine
	// reports it and keeps journaling (on the already-rolled segment —
	// the roll happens before the install precisely so a failure here
	// cannot orphan committed records).
	be.FailNextSnapshot()
	if err := e.Snapshot(); err == nil {
		t.Fatal("injected snapshot failure not reported")
	}
	after := e.Store().NewFact(credrec.True)
	if err := e.Store().MarkDirectUse(after); err != nil {
		t.Fatal(err)
	}

	// Power loss now: only synced journal bytes survive.
	crashed := be.Crash(0)
	e2, err := Open(crashed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if snap, _, _, _ := e2.Recovered(); snap != 0 {
		t.Fatalf("recovered from snapshot %d, want journal-only (install never completed)", snap)
	}
	checkRecovered(t, e2.Store(), kept, revoked)
	if !e2.Store().Valid(after) {
		t.Fatal("post-failed-snapshot mutation lost")
	}
	// And a later, successful snapshot still works on the survivor.
	if err := e2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	img2 := e2.Store().Image()
	_ = img
	e3, err := Open(crashed.Crash(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	if !bytes.Equal(e3.Store().Image(), img2) {
		t.Fatal("recovery after recovered snapshot differs")
	}
}

func TestEngineTornFinalRecord(t *testing.T) {
	be := NewMemory()
	e, err := Open(be, Options{Sync: credrec.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	kept, revoked := populate(e.Store())
	// One more op whose journal record will be half-lost: SyncNone-style
	// tear modelled by keeping 3 unsynced bytes.
	ls := e.Store()
	ls.NewFact(credrec.True)

	// Simulate: everything synced so far, then a final record of which
	// only 3 bytes hit the platter.
	segs, _ := be.ListSegments()
	active := segs[len(segs)-1]
	total, synced := be.SegmentBytes(active)
	if synced != total {
		t.Fatalf("SyncAlways left %d/%d bytes unsynced", synced, total)
	}
	crashed := be.Crash(0)
	// Manually tear: re-crash with a fabricated partial append.
	cs := crashed.segs[active]
	cs.data = append(cs.data, 0x09, 0x00, 0x00) // half a frame
	cs.synced = len(cs.data)

	e2, err := Open(crashed, Options{})
	if err != nil {
		t.Fatalf("torn final record broke recovery: %v", err)
	}
	defer e2.Close()
	if _, _, _, torn := e2.Recovered(); !torn {
		t.Fatal("torn final record not reported")
	}
	checkRecovered(t, e2.Store(), kept, revoked)
}

// TestEngineTornRecoveryThenRestart is the double-recovery obligation:
// recovering from a torn tail must truncate the tear off the medium, so
// that journaling new records and restarting again — with no snapshot
// in between — still recovers. Without truncation the second Open sees
// the old tear followed by a data-bearing segment and refuses it as
// mid-journal corruption.
func TestEngineTornRecoveryThenRestart(t *testing.T) {
	be := NewMemory()
	e, err := Open(be, Options{Sync: credrec.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	kept, revoked := populate(e.Store())

	// Crash with half a frame appended to the active segment.
	segs, _ := be.ListSegments()
	active := segs[len(segs)-1]
	crashed := be.Crash(0)
	cs := crashed.segs[active]
	cs.data = append(cs.data, 0x09, 0x00, 0x00)
	cs.synced = len(cs.data)

	e2, err := Open(crashed, Options{Sync: credrec.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, torn := e2.Recovered(); !torn {
		t.Fatal("torn final record not reported")
	}
	after := e2.Store().NewFact(credrec.True)
	if err := e2.Store().MarkDirectUse(after); err != nil {
		t.Fatal(err)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}

	// Ordinary restart (no crash, no snapshot). Must not fail, and must
	// not report the already-truncated tear again.
	e3, err := Open(crashed, Options{})
	if err != nil {
		t.Fatalf("restart after torn recovery failed: %v", err)
	}
	defer e3.Close()
	if _, _, _, torn := e3.Recovered(); torn {
		t.Fatal("tear survived the first recovery")
	}
	checkRecovered(t, e3.Store(), kept, revoked)
	if !e3.Store().Valid(after) {
		t.Fatal("post-tear mutation lost")
	}
}

// TestDirTornRecoveryThenRestart exercises the same double recovery on
// the filesystem backend (os.Truncate path).
func TestDirTornRecoveryThenRestart(t *testing.T) {
	dir := t.TempDir()
	be, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Open(be, Options{Sync: credrec.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	kept, revoked := populate(e.Store())
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the newest segment: half a frame at the tail.
	segs, _ := be.ListSegments()
	f, err := os.OpenFile(be.segPath(segs[len(segs)-1]), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x09, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	be2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Open(be2, Options{Sync: credrec.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, torn := e2.Recovered(); !torn {
		t.Fatal("torn final record not reported")
	}
	after := e2.Store().NewFact(credrec.True)
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}

	be3, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	e3, err := Open(be3, Options{})
	if err != nil {
		t.Fatalf("restart after torn recovery failed: %v", err)
	}
	defer e3.Close()
	if _, _, _, torn := e3.Recovered(); torn {
		t.Fatal("tear survived the first recovery")
	}
	checkRecovered(t, e3.Store(), kept, revoked)
	if !e3.Store().Valid(after) {
		t.Fatal("post-tear mutation lost")
	}
}

// TestEngineSegmentRollFailureInstallsNoSnapshot pins the Snapshot
// ordering: if the roll to a fresh segment fails, no snapshot may be
// installed — one covering the still-active segment would make the
// next recovery delete committed (even acknowledged) records.
func TestEngineSegmentRollFailureInstallsNoSnapshot(t *testing.T) {
	be := NewMemory()
	e, err := Open(be, Options{Sync: credrec.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	kept, revoked := populate(e.Store())

	be.FailNextCreateSegment()
	if err := e.Snapshot(); err == nil {
		t.Fatal("injected segment-roll failure not reported")
	}
	if _, r, ok, _ := be.LoadSnapshot(); ok {
		r.Close()
		t.Fatal("snapshot installed despite failed segment roll")
	}

	// The journal keeps running; everything must survive a crash.
	after := e.Store().NewFact(credrec.True)
	if err := e.Store().MarkDirectUse(after); err != nil {
		t.Fatal(err)
	}
	img := e.Store().Image()

	e2, err := Open(be.Crash(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if !bytes.Equal(e2.Store().Image(), img) {
		t.Fatal("committed records lost after failed segment roll")
	}
	checkRecovered(t, e2.Store(), kept, revoked)
	if !e2.Store().Valid(after) {
		t.Fatal("post-failure mutation lost")
	}
	// A later snapshot on the survivor succeeds and compacts.
	if err := e2.Snapshot(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineJournalWriteFailureFailsStop(t *testing.T) {
	be := NewMemory()
	e, err := Open(be, Options{Sync: credrec.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	keep := e.Store().NewFact(credrec.True)
	be.FailWrites(0)
	if err := e.Store().Invalidate(keep); err == nil {
		t.Fatal("write failure not surfaced to mutator")
	}
	if e.Store().Sync() == nil {
		t.Fatal("store did not fail-stop")
	}
	// Every mutation after the failure is refused before it touches the
	// in-memory store.
	live := e.Store().Live()
	if ref := e.Store().NewFact(credrec.True); (ref != credrec.Ref{}) {
		t.Fatal("fail-stopped store still allocates")
	}
	if got := e.Store().Live(); got != live {
		t.Fatalf("fail-stopped store mutated: %d -> %d", live, got)
	}
}

func TestDirBackendRecovery(t *testing.T) {
	dir := t.TempDir()
	be, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Open(be, Options{Sync: credrec.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	kept, revoked := populate(e.Store())
	if err := e.Snapshot(); err != nil {
		t.Fatal(err)
	}
	tail := e.Store().NewFact(credrec.True)
	if err := e.Store().MarkDirectUse(tail); err != nil {
		t.Fatal(err)
	}
	img := e.Store().Image()

	// Crash: reopen the directory without closing the engine (the
	// process died; SyncAlways means everything reached the files).
	be2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Open(be2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, _, recs, torn := e2.Recovered()
	if snap != 1 || recs != 2 || torn {
		t.Fatalf("Recovered() = %d _ %d %v, want snapshot 1, 2 tail records", snap, recs, torn)
	}
	if !bytes.Equal(e2.Store().Image(), img) {
		t.Fatal("dir recovery image differs")
	}
	checkRecovered(t, e2.Store(), kept, revoked)
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}

	// Clean close + reopen also works.
	be3, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	e3, err := Open(be3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	if !bytes.Equal(e3.Store().Image(), img) {
		t.Fatal("second dir recovery image differs")
	}
}

func TestDirBackendDiscardsTmpLeftovers(t *testing.T) {
	dir := t.TempDir()
	be, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Open(be, Options{Sync: credrec.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	e.Store().NewFact(credrec.True)
	img := e.Store().Image()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash mid-snapshot leaves a tmp file; OpenDir must ignore and
	// remove it.
	tmp := be.snapPath(9) + ".tmp"
	if err := os.WriteFile(tmp, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	be2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Open(be2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if !bytes.Equal(e2.Store().Image(), img) {
		t.Fatal("tmp leftover corrupted recovery")
	}
}

func TestEngineCorruptMidJournalFailsRecovery(t *testing.T) {
	be := NewMemory()
	e, err := Open(be, Options{Sync: credrec.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	populate(e.Store())
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	crashed := be.Crash(0)
	seg := crashed.segs[1]
	seg.data[len(seg.data)/3] ^= 0xff // damage committed data
	if _, err := Open(crashed, Options{}); !errors.Is(err, credrec.ErrJournalCorrupt) {
		t.Fatalf("mid-journal corruption: Open returned %v, want ErrJournalCorrupt", err)
	}
}
