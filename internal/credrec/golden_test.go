package credrec

import (
	"bytes"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden on-disk format vectors")

// goldenOps is the canonical operation sequence the on-disk vectors
// are generated from. It touches every opcode. Do not edit: the
// resulting bytes are a frozen format, and changing the sequence
// invalidates the vectors without proving compatibility.
func goldenOps(ls *Store) {
	login := ls.NewExternal("login", True)
	conf := ls.NewExternal("conf", Unknown)
	fact := ls.NewFact(True)
	member := ls.NewDerived(OpAnd, Of(login), Of(fact))
	guard := ls.NewDerived(OpNor, Not(conf))
	_ = ls.SetState(conf, True)
	_ = ls.MakePermanent(fact)
	_ = ls.MarkDirectUse(member)
	_ = ls.MarkNotify(guard)
	_ = ls.MarkAutoRevoke(member)
	doomed := ls.NewFact(True)
	_ = ls.Invalidate(doomed)
	ls.MarkSourceUnknown("conf")
	ls.MarkSourceFailsafe("conf")
	ls.Sweep()
}

func goldenJournal(t *testing.T) []byte {
	t.Helper()
	var journal bytes.Buffer
	ls := NewJournaledStore(&journal)
	goldenOps(ls)
	if err := ls.Sync(); err != nil {
		t.Fatal(err)
	}
	ls.Close()
	return journal.Bytes()
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden vector (run with -update to generate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: on-disk format changed (%d bytes, want %d).\n"+
			"The journal/snapshot encodings are a frozen format: stores written by\n"+
			"older builds must recover under newer ones. If this change is an\n"+
			"intentional new format version, bump the version (snapshot magic /\n"+
			"docs/STORAGE.md) and regenerate with -update.\ngot  %s\nwant %s",
			name, len(got), len(want), hex.EncodeToString(got), hex.EncodeToString(want))
	}
}

// TestGoldenJournalVector pins the exact bytes of a journal segment.
func TestGoldenJournalVector(t *testing.T) {
	checkGolden(t, "journal_v1.bin", goldenJournal(t))
}

// TestGoldenSnapshotVector pins the exact bytes of a snapshot image.
func TestGoldenSnapshotVector(t *testing.T) {
	st, err := Replay(bytes.NewReader(goldenJournal(t)))
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := st.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot_v1.bin", snap.Bytes())
}

// TestGoldenVectorsRecover proves the checked-in vectors — the bytes an
// old build would have left on disk — still recover, independently of
// the generator above.
func TestGoldenVectorsRecover(t *testing.T) {
	journal, err := os.ReadFile(filepath.Join("testdata", "journal_v1.bin"))
	if err != nil {
		t.Skipf("golden vectors not generated yet: %v", err)
	}
	st, err := Replay(bytes.NewReader(journal))
	if err != nil {
		t.Fatalf("golden journal does not replay: %v", err)
	}
	snapBytes, err := os.ReadFile(filepath.Join("testdata", "snapshot_v1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(bytes.NewReader(snapBytes))
	if err != nil {
		t.Fatalf("golden snapshot does not load: %v", err)
	}
	if !bytes.Equal(st.Image(), snap.Image()) {
		t.Fatal("golden journal and golden snapshot disagree")
	}
}

// TestGoldenRecordFraming pins the frame layout of single records
// inline, so a framing regression is caught even with -update.
func TestGoldenRecordFraming(t *testing.T) {
	cases := []struct {
		name string
		ops  func(*Store)
		want string // hex: uvarint len | crc32le | payload
	}{
		// payload 0102 = opFact, True(2)
		{"fact-true", func(ls *Store) { ls.NewFact(True) }, "02 529ff803 0102"},
		// payload 0a = opSweep
		{"sweep", func(ls *Store) { ls.Sweep() }, "01 697b9f39 0a"},
		// payload: opExternal, "id", Unknown(3)
		{"external", func(ls *Store) { ls.NewExternal("id", Unknown) }, "05 b4ea40ec 0202696403"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var journal bytes.Buffer
			ls := NewJournaledStore(&journal)
			tc.ops(ls)
			if err := ls.Sync(); err != nil {
				t.Fatal(err)
			}
			ls.Close()
			want := tc.want
			wantHex := ""
			for _, c := range want {
				if c != ' ' {
					wantHex += string(c)
				}
			}
			if got := hex.EncodeToString(journal.Bytes()); got != wantHex {
				t.Fatalf("frame = %s, want %s", got, wantHex)
			}
		})
	}
}
