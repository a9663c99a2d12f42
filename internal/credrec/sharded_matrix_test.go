package credrec_test

import (
	"bytes"
	"fmt"
	"testing"

	"oasis/internal/credrec"
	"oasis/internal/credrec/storage"
)

// matrixProbe is what the matrix compares: a derived record's resolved
// state and permanence.
type matrixProbe struct {
	st   credrec.State
	perm bool
}

// matrixWorkload is the semantic workload of TestShardedMatrix:
// cross-fact derived records, state flaps, permanent revocation, a
// sweep. It returns the facts and the derived records to probe.
func matrixWorkload(r credrec.Recorder) (facts, derived []credrec.Ref) {
	facts = make([]credrec.Ref, 16)
	for i := range facts {
		facts[i] = r.NewFact(credrec.True)
	}
	derived = make([]credrec.Ref, 0, len(facts))
	for i := range facts {
		// Pair each fact with its neighbour: with >1 shard many of
		// these dependency edges cross shards.
		derived = append(derived, r.NewDerived(credrec.OpAnd, credrec.Of(facts[i]), credrec.Of(facts[(i+1)%len(facts)])))
	}
	for i := 0; i < len(facts); i += 3 {
		if err := r.SetState(facts[i], credrec.False); err != nil {
			panic(err)
		}
	}
	if err := r.SetState(facts[0], credrec.True); err != nil {
		panic(err)
	}
	if err := r.Invalidate(facts[5]); err != nil {
		panic(err)
	}
	r.Sweep()
	return facts, derived
}

// matrixAftermath is what the matrix does to a store that has been
// through matrixWorkload and, on the journaled axis, a restart: one
// fact comes back, another is revoked for good.
func matrixAftermath(r credrec.Recorder, facts []credrec.Ref) {
	if err := r.SetState(facts[3], credrec.True); err != nil {
		panic(err)
	}
	if err := r.Invalidate(facts[9]); err != nil {
		panic(err)
	}
}

func matrixProbes(r credrec.Recorder, derived []credrec.Ref) []matrixProbe {
	out := make([]matrixProbe, len(derived))
	for i, d := range derived {
		out[i].st, out[i].perm, _ = r.Resolve(d)
	}
	return out
}

// openDurableSharded opens one engine per backend and the sharded store
// over what they recovered.
func openDurableSharded(t *testing.T, names []string, backends []*storage.Memory, opts storage.Options) (*credrec.ShardedStore, []*storage.Engine) {
	t.Helper()
	engines := make([]*storage.Engine, len(backends))
	stores := make([]*credrec.Store, len(backends))
	for i, be := range backends {
		var err error
		if engines[i], err = storage.Open(be, opts); err != nil {
			t.Fatal(err)
		}
		stores[i] = engines[i].Store()
	}
	ss, err := credrec.OpenShardedStore(names, stores)
	if err != nil {
		t.Fatal(err)
	}
	return ss, engines
}

// TestShardedMatrix runs one semantic workload at every shard count
// `make test-shard` gates on, asserting each partitioning yields
// exactly the monolithic store's observable states — in memory, and
// journaled over storage.Memory, where the store is then closed,
// reopened from what it wrote, and probed again. The matrix is what
// lets the benchmarks vary shard count freely: semantics are already
// proven invariant under partitioning, and under a restart.
func TestShardedMatrix(t *testing.T) {
	mono := credrec.NewStore()
	monoFacts, monoDerived := matrixWorkload(mono)
	want := matrixProbes(mono, monoDerived)
	matrixAftermath(mono, monoFacts)
	wantAfter := matrixProbes(mono, monoDerived)
	check := func(t *testing.T, when string, got, want []matrixProbe) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: derived %d: sharded %+v, monolith %+v", when, i, got[i], want[i])
			}
		}
	}
	for _, shards := range []int{1, 2, 4, 8} {
		names := make([]string, shards)
		for i := range names {
			names[i] = string(rune('A' + i))
		}
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ss, err := credrec.NewShardedStore(names, 0)
			if err != nil {
				t.Fatal(err)
			}
			facts, derived := matrixWorkload(ss)
			check(t, "in memory", matrixProbes(ss, derived), want)
			memImage := ss.Image()
			matrixAftermath(ss, facts)
			check(t, "in memory, afterwards", matrixProbes(ss, derived), wantAfter)

			t.Run("journaled", func(t *testing.T) {
				backends := make([]*storage.Memory, shards)
				for i := range backends {
					backends[i] = storage.NewMemory()
				}
				opts := storage.Options{Sync: credrec.SyncBatched}
				ss, engines := openDurableSharded(t, names, backends, opts)
				facts, derived := matrixWorkload(ss)
				check(t, "journaled", matrixProbes(ss, derived), want)
				if !bytes.Equal(ss.Image(), memImage) {
					t.Fatal("journaled shards diverged from in-memory shards")
				}
				for _, eng := range engines {
					if err := eng.Close(); err != nil {
						t.Fatal(err)
					}
				}
				ss, engines = openDurableSharded(t, names, backends, opts)
				check(t, "reopened", matrixProbes(ss, derived), want)
				if !bytes.Equal(ss.Image(), memImage) {
					t.Fatalf("reopened image differs:\n-- before --\n%s-- reopened --\n%s", memImage, ss.Image())
				}
				// The reopened store cascades across its shards again.
				matrixAftermath(ss, facts)
				check(t, "reopened, afterwards", matrixProbes(ss, derived), wantAfter)
				for _, eng := range engines {
					if eng.Vars().Get("torn").String() != "0" {
						t.Fatal("a closed store reopened with a torn tail")
					}
					if err := eng.Close(); err != nil {
						t.Fatal(err)
					}
				}
			})
		})
	}
}
