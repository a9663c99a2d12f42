//go:build !race

package oasis

import (
	"fmt"
	"testing"

	"oasis/internal/credrec"
)

// Under the race detector allocation counts stop repeating, so this
// file is built without it.

// TestPermanentTransitionAllocs pins what one watched record's
// permanent transition allocates with two in-process watchers: the
// issuer's Modified event to its row and both watchers invalidating
// their surrogates. Measured 3, all at the issuer; 7 while every watch
// was also a broker registration (EXPERIMENTS.md E49).
func TestPermanentTransitionAllocs(t *testing.T) {
	const runs = 50
	h := newHarness(t)
	var watchers [2]*Service
	for i := range watchers {
		w, err := New(fmt.Sprintf("Watcher%d", i), h.clk, h.net, Options{})
		if err != nil {
			t.Fatal(err)
		}
		watchers[i] = w
	}
	c := h.client("ely")
	refs := make([]credrec.Ref, runs+1) // AllocsPerRun calls f once more to warm up
	for i := range refs {
		login := h.logOn(t, c, "dm")
		for _, w := range watchers {
			if _, _, err := w.WatchCertificate(login, c); err != nil {
				t.Fatal(err)
			}
		}
		refs[i] = login.CRR
	}
	i := 0
	got := testing.AllocsPerRun(runs, func() {
		if err := h.login.Store().Invalidate(refs[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if n := h.login.watchRows() + watchers[0].surrogateRows() + watchers[1].surrogateRows(); n != 0 {
		t.Fatalf("%d rows left after every watched record's revocation", n)
	}
	t.Logf("%.0f allocs per permanent transition", got)
	if got > 3 {
		t.Errorf("a watched record's permanent transition allocates %.0f times, ceiling 3", got)
	}
}

// TestCascadeAllocs pins what a revocation cascade allocates when it
// reaches K watched records, each watched by the same W in-process
// services: the issuer's one Modified event, shared by the watchers,
// and every surrogate's invalidation. Measured 22 for K = 16, W = 2,
// all at the issuer; 37 while each record was signalled as an event of
// its own (EXPERIMENTS.md E50).
func TestCascadeAllocs(t *testing.T) {
	const runs, k = 50, 16
	h := newHarness(t)
	var watchers [2]*Service
	for i := range watchers {
		w, err := New(fmt.Sprintf("Watcher%d", i), h.clk, h.net, Options{})
		if err != nil {
			t.Fatal(err)
		}
		watchers[i] = w
	}
	store := h.login.Store()
	roots := make([]credrec.Ref, runs+1) // AllocsPerRun calls f once more to warm up
	for i := range roots {
		roots[i] = store.NewFact(credrec.True)
		for j := 0; j < k; j++ {
			dep := store.NewDerived(credrec.OpAnd, credrec.Of(roots[i]))
			for _, w := range watchers {
				w.surrogateFor("Login", dep)
			}
		}
		for _, w := range watchers {
			if err := w.ResyncSource("Login"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := h.login.watchRows(); n != len(roots)*k*len(watchers) {
		t.Fatalf("%d watch rows, want %d", n, len(roots)*k*len(watchers))
	}
	i := 0
	got := testing.AllocsPerRun(runs, func() {
		if err := store.Invalidate(roots[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if n := h.login.watchRows() + watchers[0].surrogateRows() + watchers[1].surrogateRows(); n != 0 {
		t.Fatalf("%d rows left after every cascade", n)
	}
	t.Logf("%.0f allocs per %d-record cascade", got, k)
	if got > 22 {
		t.Errorf("a %d-record cascade to two watchers allocates %.0f times, ceiling 22", k, got)
	}
}
