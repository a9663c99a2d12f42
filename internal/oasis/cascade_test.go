package oasis

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"oasis/internal/bus"
	"oasis/internal/clock"
	"oasis/internal/credrec"
	"oasis/internal/event"
	"oasis/internal/value"
)

// A cascade is one Modified event per watcher (§4.9.2): the issuer's
// store reports a mutation's changes together, and each watching
// session hears of the changed records it watches in one event, a
// triple per change in transition order.

// triple is one (ref, state, permanent) entry of a Modified event.
type triple struct {
	ref   credrec.Ref
	state credrec.State
	perm  bool
}

func triplesOf(t *testing.T, ev event.Event) []triple {
	t.Helper()
	if ev.Name != ModifiedEvent || len(ev.Args) == 0 || len(ev.Args)%3 != 0 {
		t.Fatalf("not a Modified event: %v", ev)
	}
	var out []triple
	for i := 0; i < len(ev.Args); i += 3 {
		var u uint64
		if _, err := fmt.Sscanf(ev.Args[i].S, "%x", &u); err != nil {
			t.Fatalf("Modified ref %q: %v", ev.Args[i].S, err)
		}
		out = append(out, triple{credrec.RefFromUint64(u), credrec.State(ev.Args[i+1].I), ev.Args[i+2].I != 0})
	}
	return out
}

// changeTap is an issuer's store whose change observer also records
// every batch it is called with.
type changeTap struct {
	credrec.Recorder
	batches *[][]credrec.Change
}

func (c changeTap) OnChange(f credrec.ChangeFunc) {
	c.Recorder.OnChange(func(changes []credrec.Change) {
		*c.batches = append(*c.batches, slices.Clone(changes))
		f(changes)
	})
}

// cascadeWorld is an issuer and watching services on two networks: the
// relays between them record what the issuer sends each watcher before
// passing it on.
type cascadeWorld struct {
	issuer   *Service
	batches  [][]credrec.Change
	watchers []*Service
	heard    [][]event.Notification // per watcher, since the last reset
}

func newCascadeWorld(t *testing.T, watchers int) *cascadeWorld {
	t.Helper()
	clk := clock.NewVirtual(time.Date(1996, 3, 1, 9, 0, 0, 0, time.UTC))
	issuerNet, watchNet := bus.NewNetwork(clk), bus.NewNetwork(clk)
	w := &cascadeWorld{heard: make([][]event.Notification, watchers)}
	var err error
	if w.issuer, err = New("Login", clk, issuerNet, Options{Store: changeTap{credrec.NewStore(), &w.batches}}); err != nil {
		t.Fatal(err)
	}
	relayTo(t, watchNet, "Login", issuerNet, nil)
	for i := 0; i < watchers; i++ {
		name := fmt.Sprintf("Watcher%d", i)
		s, err := New(name, clk, watchNet, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		relayTo(t, issuerNet, name, watchNet, func(n event.Notification) {
			mu.Lock()
			w.heard[i] = append(w.heard[i], n)
			mu.Unlock()
			s.Deliver(n)
		})
		w.watchers = append(w.watchers, s)
	}
	return w
}

// watch has watcher i hold a surrogate of each record, subscribed at the
// issuer by one resync, as a restarted watcher would re-register them.
func (w *cascadeWorld) watch(t *testing.T, i int, refs []credrec.Ref) map[credrec.Ref]credrec.Ref {
	t.Helper()
	locals := make(map[credrec.Ref]credrec.Ref, len(refs))
	for _, ref := range refs {
		locals[ref], _ = w.watchers[i].surrogateFor("Login", ref)
	}
	if err := w.watchers[i].ResyncSource("Login"); err != nil {
		t.Fatal(err)
	}
	return locals
}

// TestMultiRecordModifiedIsNeverMerged: the batch path's coalescing
// rule keys single-record events only. Two cascades' events on one
// session in one burst arrive as two notes, even though both begin
// with the same record; a last-writer-wins merge would drop the first
// one's records. Two single-record events for one record still merge.
func TestMultiRecordModifiedIsNeverMerged(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	net := bus.NewNetwork(clk)
	if _, err := New("Login", clk, net, Options{}); err != nil { // installs the rule
		t.Fatal(err)
	}
	var got []event.Notification
	relayTo(t, net, "Peer", bus.NewNetwork(clk), func(n event.Notification) { got = append(got, n) })
	a, b := value.Str(refString(credrec.RefFromUint64(1))), value.Str(refString(credrec.RefFromUint64(2)))
	f, tr, no := value.Int(int64(credrec.False)), value.Int(int64(credrec.True)), value.Int(0)
	sent := []event.Event{
		event.New(ModifiedEvent, a, f, no, b, f, no),
		event.New(ModifiedEvent, a, tr, no, b, tr, no),
		event.New(ModifiedEvent, a, f, no),
		event.New(ModifiedEvent, a, tr, no),
	}
	net.StartBatch("Login")
	for i, ev := range sent {
		net.Send("Login", "Peer", event.Notification{Source: "Login", SessionID: 1, Seq: uint64(i + 1), Event: ev})
	}
	net.EndBatch("Login")
	if len(got) != 3 {
		t.Fatalf("%d notes arrived, want the two cascades and one merged single-record note: %v", len(got), got)
	}
	for i, want := range []event.Event{sent[0], sent[1], sent[3]} {
		if !reflect.DeepEqual(got[i].Event.Args, want.Args) {
			t.Errorf("note %d carries %v, want %v", i, got[i].Event.Args, want.Args)
		}
	}
	if got[2].Coalesced != 1 {
		t.Errorf("the single-record note absorbed %d notes, want 1", got[2].Coalesced)
	}
}

// TestGeneratedCascades drives seeded random record graphs at an issuer
// watched by three services, each on a random watch set of its own.
// After every mutation each watcher has heard exactly one Modified
// event if any record it watches changed, and none otherwise; the event
// lists exactly those changes, in the order the issuer's store made
// them; and every surrogate reads what the issuer's record reads.
func TestGeneratedCascades(t *testing.T) {
	const seeds, facts, derived, watchers, steps = 20, 3, 21, 3, 8
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := newCascadeWorld(t, watchers)
		store := w.issuer.Store()
		var refs []credrec.Ref
		for i := 0; i < facts; i++ {
			refs = append(refs, store.NewFact(credrec.True))
		}
		ops := []credrec.Op{credrec.OpAnd, credrec.OpOr, credrec.OpNand, credrec.OpNor}
		for i := 0; i < derived; i++ {
			var parents []credrec.Parent
			for _, p := range rng.Perm(len(refs))[:1+rng.Intn(min(3, len(refs)))] {
				if rng.Intn(5) == 0 {
					parents = append(parents, credrec.Not(refs[p]))
				} else {
					parents = append(parents, credrec.Of(refs[p]))
				}
			}
			refs = append(refs, store.NewDerived(ops[rng.Intn(len(ops))], parents...))
		}
		watched := make([]map[credrec.Ref]credrec.Ref, watchers)
		var sets [watchers][]credrec.Ref
		for slices.Equal(sets[0], sets[1]) || slices.Equal(sets[1], sets[2]) || slices.Equal(sets[0], sets[2]) {
			for i := range sets {
				sets[i] = sets[i][:0]
				for _, ref := range refs {
					if rng.Intn(2) == 0 {
						sets[i] = append(sets[i], ref)
					}
				}
			}
		}
		for i := range sets {
			watched[i] = w.watch(t, i, sets[i])
		}
		for step := 0; step < steps; step++ {
			w.batches = nil
			for i := range w.heard {
				w.heard[i] = nil
			}
			what := w.mutate(t, rng, refs[:facts], refs)
			where := fmt.Sprintf("seed %d step %d (%s)", seed, step, what)
			if len(w.batches) > 1 {
				t.Fatalf("%s: the store reported one mutation in %d calls", where, len(w.batches))
			}
			var changes []credrec.Change
			for _, b := range w.batches {
				changes = append(changes, b...)
			}
			for i := range w.watchers {
				var want []triple
				for _, c := range changes {
					if _, ok := watched[i][c.Ref]; ok {
						want = append(want, triple{c.Ref, c.State, c.Permanent})
					}
				}
				heard := w.heard[i]
				switch {
				case len(want) == 0 && len(heard) != 0:
					t.Errorf("%s: watcher %d heard %d notes of records it does not watch", where, i, len(heard))
				case len(want) != 0 && len(heard) != 1:
					t.Errorf("%s: watcher %d heard %d notes, want one Modified event", where, i, len(heard))
				case len(want) != 0:
					if got := triplesOf(t, heard[0].Event); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: watcher %d heard %v, want %v", where, i, got, want)
					}
				}
				for remote, local := range watched[i] {
					st, perm, _ := store.Resolve(remote)
					lst, lperm, _ := w.watchers[i].Store().Resolve(local)
					if st != lst || perm != lperm {
						t.Errorf("%s: watcher %d surrogate of %v reads (%v, %v), issuer (%v, %v)",
							where, i, remote, lst, lperm, st, perm)
					}
				}
			}
		}
	}
}

// mutate makes one random change at the issuer: a fact takes a new
// state, or a record not yet permanent is revoked.
func (w *cascadeWorld) mutate(t *testing.T, rng *rand.Rand, facts, refs []credrec.Ref) string {
	t.Helper()
	store := w.issuer.Store()
	live := func(pool []credrec.Ref) []credrec.Ref {
		var out []credrec.Ref
		for _, ref := range pool {
			if _, perm, _ := store.Resolve(ref); !perm {
				out = append(out, ref)
			}
		}
		return out
	}
	if fs := live(facts); len(fs) > 0 && rng.Intn(2) == 0 {
		states := []credrec.State{credrec.True, credrec.False, credrec.Unknown}
		ref, st := fs[rng.Intn(len(fs))], states[rng.Intn(len(states))]
		if err := store.SetState(ref, st); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v := %v", ref, st)
	}
	rs := live(refs)
	if len(rs) == 0 {
		return "nothing left to revoke"
	}
	ref := rs[rng.Intn(len(rs))]
	if err := store.Invalidate(ref); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("revoke %v", ref)
}

// TestWatchersRaceCascade: three services watch every record of a
// cascade while its root is revoked. Whichever side of each watch the
// revocation lands on, every surrogate ends permanently false, as the
// issuer's records are, and the issuer keeps no row.
func TestWatchersRaceCascade(t *testing.T) {
	const watchers, rounds, k = 3, 20, 8
	w := newCascadeWorld(t, watchers)
	store := w.issuer.Store()
	for r := 0; r < rounds; r++ {
		root := store.NewFact(credrec.True)
		refs := make([]credrec.Ref, k)
		for i := range refs {
			refs[i] = store.NewDerived(credrec.OpAnd, credrec.Of(root))
		}
		watched := make([]map[credrec.Ref]credrec.Ref, watchers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range watched {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				locals := make(map[credrec.Ref]credrec.Ref, k)
				for _, ref := range refs {
					locals[ref], _ = w.watchers[i].surrogateFor("Login", ref)
				}
				if err := w.watchers[i].ResyncSource("Login"); err != nil {
					t.Error(err)
				}
				watched[i] = locals
			}(i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := store.Invalidate(root); err != nil {
				t.Error(err)
			}
		}()
		close(start)
		wg.Wait()
		for i, locals := range watched {
			for remote, local := range locals {
				if st, perm, _ := w.watchers[i].Store().Resolve(local); st != credrec.False || !perm {
					t.Errorf("round %d: watcher %d surrogate of %v reads (%v, %v) after the cascade", r, i, remote, st, perm)
				}
			}
		}
	}
	if n := w.issuer.watchRows(); n != 0 {
		t.Errorf("the issuer keeps %d watch rows for revoked records", n)
	}
}
