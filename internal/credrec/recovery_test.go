package credrec

import (
	"bytes"
	"sync"
	"testing"
)

func TestMarkSourceFailsafe(t *testing.T) {
	st := NewStore()
	extTrue := st.NewExternal("login", True)
	extUnk := st.NewExternal("login", Unknown)
	extFalse := st.NewExternal("login", False)
	extPerm := st.NewExternal("login", True)
	if err := st.MakePermanent(extPerm); err != nil {
		t.Fatal(err)
	}
	other := st.NewExternal("conf", True)
	dep := st.NewDerived(OpAnd, Of(extTrue))

	// True and Unknown records fail safe; already-False, permanent and
	// foreign-source records are untouched.
	if n := st.MarkSourceFailsafe("login"); n != 2 {
		t.Fatalf("failsafed %d records, want 2", n)
	}
	for _, tc := range []struct {
		ref  Ref
		want State
	}{
		{extTrue, False}, {extUnk, False}, {extFalse, False},
		{extPerm, True}, {other, True}, {dep, False},
	} {
		if s, err := st.Lookup(tc.ref); err != nil || s != tc.want {
			t.Errorf("ref %v = %v (%v), want %v", tc.ref, s, err, tc.want)
		}
	}

	// Fail-safe is NOT permanent: a resync can restore the truth.
	if err := st.SetState(extTrue, True); err != nil {
		t.Fatalf("fail-safe state not recoverable: %v", err)
	}
	if !st.Valid(dep) {
		t.Fatal("dependent did not recover with its parent")
	}
}

func TestResolve(t *testing.T) {
	st := NewStore()
	a := st.NewFact(True)
	b := st.NewFact(False)
	if err := st.MakePermanent(b); err != nil {
		t.Fatal(err)
	}
	if s, perm, err := st.Resolve(a); err != nil || s != True || perm {
		t.Fatalf("Resolve(a) = %v %v %v", s, perm, err)
	}
	if s, perm, err := st.Resolve(b); err != nil || s != False || !perm {
		t.Fatalf("Resolve(b) = %v %v %v", s, perm, err)
	}
	// Dangling resolves permanently false with the error.
	if s, perm, err := st.Resolve(Ref{Index: 99, Magic: 99}); err == nil || s != False || !perm {
		t.Fatalf("Resolve(dangling) = %v %v %v", s, perm, err)
	}
}

func TestImageDistinguishesState(t *testing.T) {
	build := func(flip bool) *Store {
		st := NewStore()
		r := st.NewFact(True)
		st.NewDerived(OpAnd, Of(r))
		if flip {
			if err := st.SetState(r, False); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	if !bytes.Equal(build(false).Image(), build(false).Image()) {
		t.Fatal("identical histories produced different images")
	}
	if bytes.Equal(build(false).Image(), build(true).Image()) {
		t.Fatal("diverged histories produced identical images")
	}
}

// The satellite regression: a save/load roundtrip taken while a
// revocation cascade runs on other goroutines. The journal lock makes
// apply order equal journal order, so any snapshot is consistent and
// the final replay matches the post-cascade store byte for byte.
func TestConcurrentCascadeRoundtrip(t *testing.T) {
	var journal bytes.Buffer
	ls := NewJournaledStore(&journal)
	defer ls.Close()

	const roots = 64
	const workers = 4
	var rootRefs []Ref
	for i := 0; i < roots; i++ {
		r := ls.NewFact(True)
		rootRefs = append(rootRefs, r)
		c1 := ls.NewDerived(OpAnd, Of(r))
		c2 := ls.NewDerived(OpAnd, Of(c1), Of(r))
		if err := ls.MarkDirectUse(c2); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each worker owns a disjoint slice of roots, mixing
			// permanent revocation with transient flips.
			for i := g; i < roots; i += workers {
				if i%2 == 0 {
					_ = ls.Invalidate(rootRefs[i])
				} else {
					_ = ls.SetState(rootRefs[i], False)
					_ = ls.SetState(rootRefs[i], True)
				}
			}
		}(g)
	}

	// Save/load while the cascades are in flight: every snapshot must
	// replay cleanly (no torn journal).
	for k := 0; k < 16; k++ {
		var copied []byte
		ls.Snapshot(func() { copied = append([]byte(nil), journal.Bytes()...) })
		if _, err := Replay(bytes.NewReader(copied)); err != nil {
			t.Fatalf("mid-cascade snapshot replay failed: %v", err)
		}
	}
	wg.Wait()
	if err := ls.Sync(); err != nil {
		t.Fatal(err)
	}

	recovered, err := Replay(bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want, got := ls.Image(), recovered.Image()
	if !bytes.Equal(want, got) {
		t.Fatalf("persisted image differs from post-cascade state:\n-- live --\n%s\n-- replayed --\n%s", want, got)
	}
	// Semantic spot check: every even root is permanently revoked in
	// both stores.
	for i := 0; i < roots; i += 2 {
		if _, perm, _ := recovered.Resolve(rootRefs[i]); !perm {
			t.Fatalf("root %d not permanently false after replay", i)
		}
	}
}
