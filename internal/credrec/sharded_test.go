package credrec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

func newTestSharded(t *testing.T, n int) *ShardedStore {
	t.Helper()
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	ss, err := NewShardedStore(names, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

func TestShardedRefPacking(t *testing.T) {
	ss := newTestSharded(t, 4)
	seen := make(map[int]bool)
	for i := 0; i < 256; i++ {
		ref := ss.NewFact(True)
		id := ss.ShardOf(ref)
		if id < 0 || id >= 4 {
			t.Fatalf("ref %v routed to shard %d", ref, id)
		}
		seen[id] = true
		if st, err := ss.Lookup(ref); err != nil || st != True {
			t.Fatalf("Lookup(%v) = %v, %v", ref, st, err)
		}
	}
	if len(seen) < 3 {
		t.Fatalf("256 facts landed on only %d of 4 shards", len(seen))
	}
}

// The constructors refuse a shape no reference format or bridge name
// could describe: no shards, an empty or repeated name, more shards
// than the shard-id field holds, and a placement parameter.
func TestShardedStoreRejectsBadNames(t *testing.T) {
	tooMany := make([]string, MaxStoreShards+1)
	for i := range tooMany {
		tooMany[i] = fmt.Sprintf("s%02d", i)
	}
	for _, names := range [][]string{nil, {}, {"a", ""}, {"a", "b", "a"}, tooMany} {
		if _, err := NewShardedStore(names, 0); err == nil {
			t.Errorf("NewShardedStore accepted %d names %q", len(names), names)
		}
		stores := make([]*Store, len(names))
		for i := range stores {
			stores[i] = NewStore()
		}
		if _, err := OpenShardedStore(names, stores); err == nil {
			t.Errorf("OpenShardedStore accepted %d names %q", len(names), names)
		}
	}
	if _, err := NewShardedStore([]string{"a", "b"}, 16); err == nil {
		t.Error("NewShardedStore accepted replicas 16")
	}
}

// Leaves spread evenly whatever the number of allocations each entry
// makes: the allocation count also advances for the derived records
// placed on their parent's shard, so a placement that strides through
// it (seq % n) would put every leaf on a few shards.
func TestShardedPlacementSpreadsLeaves(t *testing.T) {
	const entries = 4000
	for _, n := range []int{2, 4, 8} {
		for per := 1; per <= 4; per++ {
			ss := newTestSharded(t, n)
			leaves := make([]int, n)
			for e := 0; e < entries; e++ {
				fact := ss.NewFact(True)
				leaves[ss.ShardOf(fact)]++
				for d := 1; d < per; d++ {
					ss.NewDerived(OpAnd, Of(fact))
				}
			}
			mean := float64(entries) / float64(n)
			for i, c := range leaves {
				if dev := float64(c)/mean - 1; dev < -0.25 || dev > 0.25 {
					t.Errorf("%d shards, %d allocations per entry: shard %d holds %d leaves, %+.0f%% of the mean %.0f (all: %v)",
						n, per, i, c, dev*100, mean, leaves)
				}
			}
		}
	}
}

func TestShardedDanglingShardID(t *testing.T) {
	ss := newTestSharded(t, 2)
	bad := Ref{Index: 63 << shardIDShift, Magic: 1} // shard 63 is beyond the store
	if _, err := ss.Lookup(bad); err == nil {
		t.Fatal("out-of-range shard id resolved")
	}
	if st, perm, _ := ss.Resolve(bad); st != False || !perm {
		t.Fatalf("Resolve out-of-range = %v, %v; want permanently false", st, perm)
	}
	if ss.Valid(bad) {
		t.Fatal("out-of-range ref validated")
	}
	if err := ss.SetState(bad, True); err == nil {
		t.Fatal("SetState on out-of-range ref succeeded")
	}
}

func TestShardedLocalCascade(t *testing.T) {
	ss := newTestSharded(t, 4)
	f := ss.NewFact(True)
	d1 := ss.NewDerived(OpAnd, Of(f))
	d2 := ss.NewDerived(OpAnd, Of(d1))
	// First-parent placement: the chain stays on the fact's shard.
	if ss.ShardOf(d1) != ss.ShardOf(f) || ss.ShardOf(d2) != ss.ShardOf(f) {
		t.Fatalf("chain scattered: shards %d, %d, %d", ss.ShardOf(f), ss.ShardOf(d1), ss.ShardOf(d2))
	}
	if !ss.Valid(d2) {
		t.Fatal("derived chain not true")
	}
	if err := ss.SetState(f, False); err != nil {
		t.Fatal(err)
	}
	if ss.Valid(d1) || ss.Valid(d2) {
		t.Fatal("cascade did not reach the chain")
	}
}

// crossShardPair returns a fact and a second fact guaranteed to live on
// a different shard, for cross-shard edge tests.
func crossShardPair(t *testing.T, ss *ShardedStore) (a, b Ref) {
	t.Helper()
	a = ss.NewFact(True)
	for i := 0; i < 1024; i++ {
		b = ss.NewFact(True)
		if ss.ShardOf(b) != ss.ShardOf(a) {
			return a, b
		}
	}
	t.Fatal("could not allocate facts on two distinct shards")
	return
}

func TestShardedCrossShardCascade(t *testing.T) {
	ss := newTestSharded(t, 4)
	a, b := crossShardPair(t, ss)
	// Derived lands on a's shard; b is bridged.
	d := ss.NewDerived(OpAnd, Of(a), Of(b))
	if ss.ShardOf(d) != ss.ShardOf(a) {
		t.Fatalf("derived on shard %d, want first parent's %d", ss.ShardOf(d), ss.ShardOf(a))
	}
	if !ss.Valid(d) {
		t.Fatal("cross-shard AND not true")
	}
	// A change on b's shard must cross the bridge.
	if err := ss.SetState(b, False); err != nil {
		t.Fatal(err)
	}
	if ss.Valid(d) {
		t.Fatal("remote parent change did not cascade across shards")
	}
	if err := ss.SetState(b, True); err != nil {
		t.Fatal(err)
	}
	if !ss.Valid(d) {
		t.Fatal("bridge did not restore")
	}
	// Permanent revocation crosses too, and sticks.
	if err := ss.Invalidate(b); err != nil {
		t.Fatal(err)
	}
	if st, perm, _ := ss.Resolve(d); st != False || !perm {
		t.Fatalf("derived after remote Invalidate = %v perm=%v; want permanent false", st, perm)
	}
}

func TestShardedCrossShardChain(t *testing.T) {
	// a --bridge--> d1 (b's shard) --bridge--> d2 (c's shard): a cascade
	// must chain through two bridges.
	ss := newTestSharded(t, 4)
	a, b := crossShardPair(t, ss)
	d1 := ss.NewDerived(OpAnd, Of(b), Of(a)) // on b's shard, bridges a
	var c Ref
	for i := 0; i < 1024; i++ {
		c = ss.NewFact(True)
		if ss.ShardOf(c) != ss.ShardOf(d1) {
			break
		}
	}
	if ss.ShardOf(c) == ss.ShardOf(d1) {
		t.Fatal("no third shard reached")
	}
	d2 := ss.NewDerived(OpAnd, Of(c), Of(d1)) // on c's shard, bridges d1
	if !ss.Valid(d2) {
		t.Fatal("chained cross-shard AND not true")
	}
	if err := ss.SetState(a, False); err != nil {
		t.Fatal(err)
	}
	if ss.Valid(d1) || ss.Valid(d2) {
		t.Fatal("cascade did not chain across two bridges")
	}
}

func TestShardedBridgeSharing(t *testing.T) {
	ss := newTestSharded(t, 4)
	a, b := crossShardPair(t, ss)
	before := ss.Live()
	d1 := ss.NewDerived(OpAnd, Of(a), Of(b))
	mid := ss.Live()
	d2 := ss.NewDerived(OpOr, Of(a), Of(b))
	after := ss.Live()
	// d1 minted one bridge for b; d2 reuses it: one new record only.
	if mid-before != 2 { // derived + bridge
		t.Fatalf("first derived added %d records, want 2 (derived + bridge)", mid-before)
	}
	if after-mid != 1 {
		t.Fatalf("second derived added %d records, want 1 (bridge shared)", after-mid)
	}
	if err := ss.SetState(b, False); err != nil {
		t.Fatal(err)
	}
	if ss.Valid(d1) {
		t.Fatal("AND survived remote false")
	}
	if !ss.Valid(d2) {
		t.Fatal("OR lost its true local parent")
	}
}

func TestShardedDanglingParent(t *testing.T) {
	ss := newTestSharded(t, 2)
	a := ss.NewFact(True)
	gone := Ref{Index: a.Index, Magic: a.Magic + 77}
	d := ss.NewDerived(OpAnd, Of(a), Of(gone))
	if st, perm, _ := ss.Resolve(d); st != False || !perm {
		t.Fatalf("derived with dangling parent = %v perm=%v; want permanent false", st, perm)
	}
}

func TestShardedOnChangeGlobalRefs(t *testing.T) {
	ss := newTestSharded(t, 4)
	var mu sync.Mutex
	var calls [][]Change
	ss.OnChange(func(changes []Change) {
		mu.Lock()
		calls = append(calls, append([]Change(nil), changes...))
		mu.Unlock()
	})
	var f Ref
	for ss.ShardOf(f) == 0 { // a shard id of 0 would hide a missing globalisation
		f = ss.NewFact(True)
	}
	d := ss.NewDerived(OpAnd, Of(f)) // placed on its parent's shard
	for _, r := range []Ref{f, d} {
		if err := ss.MarkNotify(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := ss.SetState(f, False); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := [][]Change{{{f, False, false}, {d, False, false}}}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("observer saw %v; want one call reporting the cascade under global refs %v", calls, want)
	}
}

func TestShardedSourceTransitions(t *testing.T) {
	ss := newTestSharded(t, 4)
	var refs []Ref
	for i := 0; i < 32; i++ {
		refs = append(refs, ss.NewExternal("Login", True))
	}
	if n := ss.MarkSourceUnknown("Login"); n != 32 {
		t.Fatalf("MarkSourceUnknown touched %d, want 32", n)
	}
	for _, r := range refs {
		if st, _ := ss.Lookup(r); st != Unknown {
			t.Fatalf("external %v = %v after MarkSourceUnknown", r, st)
		}
	}
	if n := ss.MarkSourceFailsafe("Login"); n != 32 {
		t.Fatalf("MarkSourceFailsafe touched %d, want 32", n)
	}
	if got := len(externalsNamed(ss, "Login")); got != 32 {
		t.Fatalf("Externals = %d, want 32", got)
	}
}

func TestShardedResyncAfterMissedRevocation(t *testing.T) {
	// The reason opening recovered shards demands a resync: the parent's
	// shard may hold a revocation the bridge's shard never saw. Detach
	// the parent's fan-out for the revocation, as a shard that lost the
	// bridge's update in a crash would look, then resync.
	ss := newTestSharded(t, 4)
	a, b := crossShardPair(t, ss)
	d := ss.NewDerived(OpAnd, Of(a), Of(b))
	bStore, bLocal, _ := ss.resolveShard(b)
	bStore.writeMu.Lock()
	bStore.onBridge = nil
	bStore.writeMu.Unlock()
	if err := bStore.Invalidate(bLocal); err != nil {
		t.Fatal(err)
	}
	if !ss.Valid(d) {
		t.Fatal("setup: the revocation reached the bridge without a fan-out")
	}
	if n := ss.ResyncShard(ss.names[ss.ShardOf(b)]); n != 1 {
		t.Fatalf("ResyncShard visited %d bridges, want 1", n)
	}
	if st, perm, _ := ss.Resolve(d); st != False || !perm {
		t.Fatalf("derived = %v perm=%v after resync of a revoked parent; want permanent false", st, perm)
	}
	if n := ss.nEdges.Load(); n != 0 {
		t.Fatalf("edges = %d after resync of a permanent parent, want 0", n)
	}
}

func TestShardedSweepPrunesEdges(t *testing.T) {
	ss := newTestSharded(t, 4)
	a, b := crossShardPair(t, ss)
	d := ss.NewDerived(OpAnd, Of(a), Of(b))
	if n := int(ss.nEdges.Load()); n != 1 {
		t.Fatalf("edges = %d, want 1", n)
	}
	if err := ss.Invalidate(b); err != nil {
		t.Fatal(err)
	}
	// Permanent transitions retire the edge eagerly.
	if n := int(ss.nEdges.Load()); n != 0 {
		t.Fatalf("edges = %d after permanent revocation, want 0", n)
	}
	ss.Sweep()
	if ss.Valid(d) {
		t.Fatal("revoked subgraph still valid after sweep")
	}
}

func TestShardedImageDeterministic(t *testing.T) {
	build := func() []byte {
		ss := newTestSharded(t, 4)
		var facts []Ref
		for i := 0; i < 64; i++ {
			facts = append(facts, ss.NewFact(True))
		}
		for i := 0; i+1 < len(facts); i += 2 {
			ss.NewDerived(OpAnd, Of(facts[i]), Of(facts[i+1]))
		}
		for i := 0; i < len(facts); i += 3 {
			_ = ss.SetState(facts[i], False)
		}
		return ss.Image()
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("identical histories produced different sharded images")
	}
}

func TestShardedConcurrentStorm(t *testing.T) {
	// Parallel revocation storms on disjoint subgraphs must be safe and
	// leave every chain consistent. Run with -race in make race.
	ss := newTestSharded(t, 4)
	const groups = 64
	facts := make([]Ref, groups)
	chains := make([][]Ref, groups)
	for g := range facts {
		facts[g] = ss.NewFact(True)
		prev := facts[g]
		for d := 0; d < 4; d++ {
			prev = ss.NewDerived(OpAnd, Of(prev))
			chains[g] = append(chains[g], prev)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				g := (w*200 + i) % groups
				_ = ss.SetState(facts[g], False)
				_ = ss.SetState(facts[g], True)
			}
		}(w)
	}
	wg.Wait()
	for g := range facts {
		want, _ := ss.Lookup(facts[g])
		for _, d := range chains[g] {
			if got, _ := ss.Lookup(d); got != want {
				t.Fatalf("group %d inconsistent after storm: fact %v, derived %v", g, want, got)
			}
		}
	}
}

func TestBridgeSourceRoundTrip(t *testing.T) {
	parent := Ref{Index: 3<<shardIDShift | 17, Magic: 9}
	src := bridgeName("s03", parent)
	if src != "shard:s03#c00001100000009" {
		t.Fatalf("bridgeName = %q", src)
	}
	owner, got, err := parseBridgeName(src)
	if err != nil || owner != "s03" || got != parent {
		t.Fatalf("parseBridgeName(%q) = %q, %v, %v", src, owner, got, err)
	}
	// A shard name may itself hold the separator: the reference is what
	// follows the last one.
	if owner, got, err := parseBridgeName(bridgeName("a#b", parent)); err != nil || owner != "a#b" || got != parent {
		t.Fatalf("owner with separator: %q, %v, %v", owner, got, err)
	}
	for _, bad := range []string{
		"", "Login", "shard:", "shard:s03", "shard:s03#", "shard:s03#xyz",
		"shard:s03#C00001100000009",   // upper-case hex
		"shard:s03#0c00001100000009",  // leading zero
		"shard:s03#+c00001100000009",  // sign
		"shard:s03#1c00001100000009f", // 65 bits
		"shard:s03# c00001100000009",
		"Shard:s03#c00001100000009",
	} {
		if owner, ref, err := parseBridgeName(bad); err == nil {
			t.Errorf("parseBridgeName(%q) accepted: %q, %v", bad, owner, ref)
		}
	}
}

// journaledShards builds n journaled shard stores over failingSinks
// that do not fail until told to.
func journaledShards(n int, policy SyncPolicy) ([]*Store, []*failingSink) {
	stores, sinks := make([]*Store, n), make([]*failingSink, n)
	for i := range stores {
		sinks[i] = &failingSink{failAt: 1 << 30}
		stores[i] = NewStore()
		stores[i].StartJournal(sinks[i], JournalOptions{Sync: policy})
	}
	return stores, sinks
}

func openTestSharded(t *testing.T, stores []*Store) *ShardedStore {
	t.Helper()
	names := make([]string, len(stores))
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	ss, err := OpenShardedStore(names, stores)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// replayShards rebuilds each shard from what its sink holds: the stores
// a recovery would hand to OpenShardedStore.
func replayShards(t *testing.T, sinks []*failingSink) []*Store {
	t.Helper()
	stores := make([]*Store, len(sinks))
	for i, sink := range sinks {
		sink.mu.Lock()
		data := append([]byte(nil), sink.data...)
		sink.mu.Unlock()
		st, err := Replay(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		stores[i] = st
	}
	return stores
}

// The edge table, the shared bridges and leaf placement all come back
// from what the shards journaled: a reopened store cascades across
// shards, shares the bridge it already has, and places the next
// records where the store that never stopped does.
func TestShardedReopenRebuildsEdges(t *testing.T) {
	stores, sinks := journaledShards(4, SyncAlways)
	ss := openTestSharded(t, stores)
	a, b := crossShardPair(t, ss)
	d := ss.NewDerived(OpAnd, Of(a), Of(b))
	dead := ss.NewDerived(OpAnd, Of(a), Of(ss.NewFact(True)))
	a2, b2 := crossShardPair(t, ss)
	if err := ss.Invalidate(b2); err != nil {
		t.Fatal(err)
	}
	gone := ss.NewDerived(OpAnd, Of(a2), Of(b2)) // a bridge born final: no edge

	re := openTestSharded(t, replayShards(t, sinks))
	if !bytes.Equal(re.Image(), ss.Image()) {
		t.Fatalf("reopened image differs:\n-- live --\n%s-- reopened --\n%s", ss.Image(), re.Image())
	}
	if got, want := re.nEdges.Load(), ss.nEdges.Load(); got != want || got == 0 {
		t.Fatalf("reopened store has %d edges, the live one %d", got, want)
	}
	for _, s := range []*ShardedStore{ss, re} {
		before := s.Live()
		if d2 := s.NewDerived(OpOr, Of(a), Of(b)); s.Live()-before != 1 {
			t.Fatalf("derivation from an already-bridged parent added %d records, want 1 (%v)", s.Live()-before, d2)
		}
		for i := 0; i < 8; i++ {
			s.NewFact(True)
		}
		if err := s.SetState(b, False); err != nil {
			t.Fatal(err)
		}
		if s.Valid(d) || !s.Valid(dead) || s.Valid(gone) {
			t.Fatal("cross-shard cascade wrong after reopen")
		}
	}
	if !bytes.Equal(re.Image(), ss.Image()) {
		t.Fatal("the reopened store and the one that never stopped diverged")
	}
	// A clean reopen has nothing to repair, and journals nothing.
	again := replayShards(t, sinks)
	quiet := make([]*failingSink, len(again))
	for i, st := range again {
		quiet[i] = &failingSink{failAt: 1 << 30}
		st.StartJournal(quiet[i], JournalOptions{Sync: SyncAlways})
		defer st.Close()
	}
	openTestSharded(t, again)
	for i, st := range again {
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
		if n := len(quiet[i].data); n != 0 {
			t.Fatalf("reopening consistent shards journaled %d bytes on shard %d", n, i)
		}
	}
}

// A store holding a bridge this store cannot have made must not open.
func TestShardedOpenRefusesForeignBridges(t *testing.T) {
	for _, src := range []string{
		"shard:B#zz",               // malformed
		bridgeName("B", Ref{1, 1}), // owned by shard 0, which is this shard and is not B
		bridgeName("Z", Ref{Index: 1 << shardIDShift, Magic: 1}),  // shard 1 is B, not Z
		bridgeName("C", Ref{Index: 40 << shardIDShift, Magic: 1}), // beyond the store
	} {
		st := NewStore()
		st.NewExternal(src, True)
		if _, err := OpenShardedStore([]string{"A", "B", "C"}, []*Store{st, NewStore(), NewStore()}); err == nil {
			t.Errorf("store with bridge source %q opened", src)
		}
	}
	// And the sharded store never lets a foreign record take the prefix.
	ss := newTestSharded(t, 2)
	if ref := ss.NewExternal("shard:B#1", True); ref != (Ref{}) {
		t.Fatalf("foreign record under the bridge prefix allocated: %v", ref)
	}
}

// The loser of a bridge-creation race must not leak: its surrogate has
// no children and no edge, so nothing would ever make it sweepable.
func TestShardedBridgeRaceLeavesNoOrphan(t *testing.T) {
	for round := 0; round < 50; round++ {
		ss := newTestSharded(t, 4)
		a, b := crossShardPair(t, ss)
		if err := ss.Invalidate(a); err != nil {
			t.Fatal(err)
		}
		ss.Sweep()
		baseline := ss.Live() // b alone
		const racers = 8
		derived := make([]Ref, racers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < racers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				local := ss.NewFact(True)
				<-start
				derived[g] = ss.NewDerived(OpAnd, Of(local), Of(b))
			}(g)
		}
		close(start)
		wg.Wait()
		for _, d := range derived {
			if !ss.Valid(d) {
				t.Fatal("derived record not true")
			}
			if err := ss.Invalidate(d); err != nil {
				t.Fatal(err)
			}
		}
		if err := ss.Invalidate(b); err != nil {
			t.Fatal(err)
		}
		ss.Sweep()
		ss.Sweep()
		// What is left: each racer's own local fact, nothing else.
		if got := ss.Live() - racers; got != baseline-1 {
			t.Fatalf("round %d: %d records outlive invalidate + sweep (baseline %d)\n%s", round, got, baseline-1, ss.Image())
		}
	}
}

// One shard of four loses its journal. A revocation the store has
// acknowledged on a healthy shard still reaches its dependents on the
// failed shard, in memory; and from then on every entry-point mutation
// is refused on every shard — the monolith's fail-stop, store-wide.
func TestShardedOneJournalFailsStopsAll(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncBatched} {
		t.Run(policy.String(), func(t *testing.T) {
			stores, sinks := journaledShards(4, policy)
			ss := openTestSharded(t, stores)
			defer func() {
				for _, st := range stores {
					st.Close()
				}
			}()
			a, b := crossShardPair(t, ss)
			d := ss.NewDerived(OpAnd, Of(b), Of(a)) // on b's shard, bridging a
			if err := ss.MarkDirectUse(d); err != nil {
				t.Fatal(err)
			}
			spare := ss.NewFact(True)
			failed, healthy := ss.ShardOf(b), ss.ShardOf(a)
			if err := stores[failed].Sync(); err != nil {
				t.Fatal(err)
			}
			sinks[failed].mu.Lock()
			sinks[failed].failAt = 0 // every write from here on fails
			sinks[failed].mu.Unlock()

			// The revocation is journaled on the healthy shard and
			// acknowledged; its fan-out is the write that finds the
			// failed shard's disk gone.
			if err := ss.Invalidate(a); err != nil {
				t.Fatalf("revocation on a healthy shard refused: %v", err)
			}
			if ss.Valid(d) {
				t.Fatal("acknowledged revocation did not reach its dependent on the failed shard")
			}
			if err := stores[failed].Sync(); err == nil {
				t.Fatal("the failed shard's journal reports no error")
			}
			if err := stores[healthy].Sync(); err != nil {
				t.Fatalf("the healthy shard's own journal failed: %v", err)
			}

			// Fail-stop, store-wide.
			for i := 0; i < 16; i++ {
				if ref := ss.NewFact(True); ref != (Ref{}) {
					t.Fatalf("allocation %d on a halted store returned %v", i, ref)
				}
			}
			if ref := ss.NewDerived(OpAnd, Of(spare)); ref != (Ref{}) {
				t.Fatalf("derivation on a halted store returned %v", ref)
			}
			if err := ss.SetState(spare, False); err == nil {
				t.Fatal("SetState on a halted store succeeded")
			}
			if err := ss.Invalidate(spare); err == nil {
				t.Fatal("Invalidate on a halted store succeeded")
			}
			if err := ss.MarkDirectUse(spare); err == nil {
				t.Fatal("MarkDirectUse on a halted store succeeded")
			}
			if n := ss.Sweep(); n != 0 {
				t.Fatalf("Sweep on a halted store deleted %d records", n)
			}
			if !ss.Valid(spare) {
				t.Fatal("a refused mutation was applied")
			}
		})
	}
}

// orderedSink logs its writes and syncs into a log shared with its
// sibling shards' sinks, so a test can read off the order in which
// things reached which disk. A slow sink holds every write for a while,
// as a disk with a queue would.
type orderedSink struct {
	log   *sinkLog
	shard int
	slow  time.Duration
}

type sinkLog struct {
	mu     sync.Mutex
	events []sinkEvent
}

type sinkEvent struct {
	shard int
	data  []byte // nil for a sync
}

func (s *orderedSink) Write(p []byte) (int, error) {
	time.Sleep(s.slow)
	s.log.mu.Lock()
	s.log.events = append(s.log.events, sinkEvent{s.shard, append([]byte{}, p...)})
	s.log.mu.Unlock()
	return len(p), nil
}

func (s *orderedSink) Sync() error {
	s.log.mu.Lock()
	s.log.events = append(s.log.events, sinkEvent{shard: s.shard})
	s.log.mu.Unlock()
	return nil
}

// A bridge keeps a final value for good, so the record that makes a
// bridge final and not False must not reach its shard's disk before the
// record that made the parent final is safe on the parent's: a crash
// could otherwise keep the first and lose the second, and nothing
// could ever tell the bridge again. Under SyncBatched nothing else
// orders two shards' journals; the parent's disk is slow here, so
// without the wait the bridge's record would win the race.
func TestShardedFinalValueWaitsForParentShard(t *testing.T) {
	log := &sinkLog{}
	stores := make([]*Store, 4)
	sinks := make([]*orderedSink, 4)
	for i := range stores {
		sinks[i] = &orderedSink{log: log, shard: i}
		stores[i] = NewStore()
		stores[i].StartJournal(sinks[i], JournalOptions{Sync: SyncBatched})
		defer stores[i].Close()
	}
	ss := openTestSharded(t, stores)
	a, b := crossShardPair(t, ss)
	d := ss.NewDerived(OpOr, Of(b), Of(a)) // on b's shard, bridging a
	for _, st := range stores {
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	bridge := externalsNamed(stores[ss.ShardOf(b)], bridgeName(ss.names[ss.ShardOf(a)], a))[0]
	sinks[ss.ShardOf(a)].slow = 50 * time.Millisecond
	if err := ss.Apply([]Change{{Ref: a, State: True, Permanent: true}}); err != nil {
		t.Fatal(err)
	}
	if _, perm, _ := ss.Resolve(d); !perm {
		t.Fatal("setup: the disjunction did not become final with its parent")
	}
	for _, st := range stores {
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	_, aLocal, _ := ss.resolveShard(a)
	parentRecord := binary.AppendUvarint([]byte{opPermanent}, aLocal.Uint64())
	bridgeRecord := binary.AppendUvarint([]byte{opPermanent}, bridge.Uint64())
	parentWritten, parentSynced, bridgeWritten := false, -1, -1
	log.mu.Lock()
	defer log.mu.Unlock()
	for i, ev := range log.events {
		switch {
		case ev.shard == ss.ShardOf(a) && bytes.HasSuffix(ev.data, parentRecord):
			parentWritten = true
		case ev.shard == ss.ShardOf(a) && ev.data == nil && parentWritten && parentSynced < 0:
			parentSynced = i
		case ev.shard == ss.ShardOf(b) && bytes.HasSuffix(ev.data, bridgeRecord):
			bridgeWritten = i
		}
	}
	if parentSynced < 0 || bridgeWritten < 0 {
		t.Fatalf("did not see both records reach their disks (parent synced at %d, bridge written at %d)", parentSynced, bridgeWritten)
	}
	if bridgeWritten < parentSynced {
		t.Fatalf("the bridge's final value was written (event %d) before its parent's was synced (event %d)", bridgeWritten, parentSynced)
	}
}

// TestShardedApplyGroupsByShard: a batch over several shards is one
// mutation on each, its changes in batch order, and a change whose
// reference names no shard of the store is dropped as dangling.
func TestShardedApplyGroupsByShard(t *testing.T) {
	ss := newTestSharded(t, 4)
	on := func(cond func(Ref) bool) Ref {
		for {
			if r := ss.NewExternal("Issuer", Unknown); cond(r) {
				return r
			}
		}
	}
	a := on(func(Ref) bool { return true })
	b := on(func(r Ref) bool { return ss.ShardOf(r) != ss.ShardOf(a) })
	a2 := on(func(r Ref) bool { return ss.ShardOf(r) == ss.ShardOf(a) })
	for _, r := range []Ref{a, b, a2} {
		if err := ss.MarkNotify(r); err != nil {
			t.Fatal(err)
		}
	}
	calls := map[int][][]Change{}
	ss.OnChange(func(changes []Change) {
		shard := ss.ShardOf(changes[0].Ref)
		calls[shard] = append(calls[shard], append([]Change(nil), changes...))
	})
	offRange := Ref{Index: 63 << shardIDShift, Magic: 1}
	if err := ss.Apply([]Change{{a2, True, false}, {b, False, true}, {offRange, True, false}, {a, False, false}}); err != nil {
		t.Fatal(err)
	}
	want := map[int][][]Change{
		ss.ShardOf(a): {{{a2, True, false}, {a, False, false}}},
		ss.ShardOf(b): {{{b, False, true}}},
	}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("observer calls by shard %v, want %v", calls, want)
	}
}

// TestShardedFinalBridgeOutlivesSweep: a derived record over a parent
// that is already final, on another shard, gets a bridge that holds the
// final value. A sweep running beside the derivation must not collect
// that bridge before the child is linked beneath it, or the child is
// born revoked. A shard's sweep collects a final record with no child
// and no flag, so the bridge is made final only once the child is
// linked.
func TestShardedFinalBridgeOutlivesSweep(t *testing.T) {
	ss := newTestSharded(t, 2)
	sweepBeside(t, ss)
	for i := 0; i < 500; i++ {
		a, b := crossShardPair(t, ss)
		_, _ = ss.MarkDirectUse(a), ss.MarkDirectUse(b) // no sweep takes either
		if err := ss.Apply([]Change{{Ref: b, State: True, Permanent: true}}); err != nil {
			t.Fatal(err)
		}
		d := ss.NewDerived(OpAnd, Of(a), Of(b))
		if st, perm, err := ss.Resolve(d); err == nil && (st != True || perm) {
			t.Fatalf("derivation %d over a true fact and a final true parent reads %v permanent=%t", i, st, perm)
		}
		_, _ = ss.Invalidate(a), ss.Invalidate(d) // let the sweeper collect them
	}
}
