package credrec

import (
	"bytes"
	"errors"
	"testing"
)

// buildComplexStore exercises every field the snapshot must carry:
// facts, externals, derived records with negated parents, permanence,
// the notify/direct-use/auto-revoke flags, revocation cascades, and a
// sweep that leaves populated free lists.
func buildComplexStore() (*Store, []Ref) {
	st := NewStore()
	login := st.NewExternal("login", True)
	conf := st.NewExternal("conf", Unknown)
	fact := st.NewFact(True)
	member := st.NewDerived(OpAnd, Of(login), Of(fact))
	guard := st.NewDerived(OpNor, Not(conf))
	_ = st.MakePermanent(fact)
	_ = st.MarkDirectUse(member)
	_ = st.MarkNotify(guard)
	_ = st.MarkAutoRevoke(member)
	var dead []Ref
	for i := 0; i < 20; i++ {
		dead = append(dead, st.NewFact(True))
	}
	for _, d := range dead {
		_ = st.Invalidate(d)
	}
	st.Sweep()
	st.MarkSourceUnknown("conf")
	return st, []Ref{login, conf, fact, member, guard}
}

func TestSnapshotRoundtrip(t *testing.T) {
	st, refs := buildComplexStore()
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st.Image(), got.Image()) {
		t.Fatalf("restored image differs:\n-- original --\n%s\n-- restored --\n%s", st.Image(), got.Image())
	}
	for _, r := range refs {
		ws, wp, werr := st.Resolve(r)
		gs, gp, gerr := got.Resolve(r)
		if ws != gs || wp != gp || (werr == nil) != (gerr == nil) {
			t.Fatalf("ref %v: restored %v/%v/%v, want %v/%v/%v", r, gs, gp, gerr, ws, wp, werr)
		}
	}
	// Cascades still propagate in the restored store (children links
	// and effective counters survived).
	if err := got.SetState(refs[0], False); err != nil { // login external
		t.Fatal(err)
	}
	if got.Valid(refs[3]) {
		t.Fatal("restored store does not cascade revocation")
	}
}

// The load-bearing property: a snapshot captures the allocator, so the
// restored store's future is identical — same refs minted, same slots
// reused by the next sweep.
func TestSnapshotAllocationDeterminism(t *testing.T) {
	st, _ := buildComplexStore()
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		a, b := st.NewFact(True), restored.NewFact(True)
		if a != b {
			t.Fatalf("allocation %d diverged: %v vs %v", i, a, b)
		}
	}
	va := st.NewDerived(OpOr, Of(externalsNamed(st, "login")[0]))
	vb := restored.NewDerived(OpOr, Of(externalsNamed(restored, "login")[0]))
	if va != vb {
		t.Fatalf("derived allocation diverged: %v vs %v", va, vb)
	}
	if sa, sb := st.Sweep(), restored.Sweep(); sa != sb {
		t.Fatalf("sweep diverged: %d vs %d records", sa, sb)
	}
	if !bytes.Equal(st.Image(), restored.Image()) {
		t.Fatal("images diverged after identical post-snapshot operations")
	}
}

func TestSnapshotCorruption(t *testing.T) {
	st, _ := buildComplexStore()
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Any single-byte flip is detected (magic, payload or checksum).
	for _, pos := range []int{0, 7, 8, len(full) / 2, len(full) - 1} {
		corrupt := append([]byte(nil), full...)
		corrupt[pos] ^= 0xff
		if _, err := ReadSnapshot(bytes.NewReader(corrupt)); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("flip at byte %d: %v, want ErrSnapshotCorrupt", pos, err)
		}
	}
	// Truncation is detected.
	for _, cut := range []int{0, 4, len(full) / 2, len(full) - 1} {
		if _, err := ReadSnapshot(bytes.NewReader(full[:cut])); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("truncation to %d bytes: %v, want ErrSnapshotCorrupt", cut, err)
		}
	}
	// Trailing garbage is detected (the CRC moves).
	if _, err := ReadSnapshot(bytes.NewReader(append(append([]byte(nil), full...), 0xAB))); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Error("trailing garbage went undetected")
	}
}

func TestSnapshotEmptyStore(t *testing.T) {
	var buf bytes.Buffer
	if err := NewStore().WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := st.NewFact(True); got != NewStore().NewFact(True) {
		t.Fatalf("empty-snapshot store allocates differently: %v", got)
	}
}
