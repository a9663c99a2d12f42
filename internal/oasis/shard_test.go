package oasis

import (
	"testing"
	"time"

	"oasis/internal/bus"
	"oasis/internal/clock"
	"oasis/internal/credrec"
	"oasis/internal/fault"
)

// shardRig is a 4-member shard cluster on one in-process bus: each
// member is a full service with its own store, joined into one ring.
type shardRig struct {
	clk   *clock.Virtual
	net   *bus.Network
	names []string
	svcs  map[string]*Service
}

func newShardRig(t *testing.T, opts Options) *shardRig {
	t.Helper()
	clk := clock.NewVirtual(time.Date(1997, 5, 1, 9, 0, 0, 0, time.UTC))
	net := bus.NewNetwork(clk)
	names := []string{"shardA", "shardB", "shardC", "shardD"}
	rig := &shardRig{clk: clk, net: net, names: names, svcs: make(map[string]*Service)}
	for _, n := range names {
		svc, err := New(n, clk, net, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.JoinShardRing(names, 2); err != nil {
			t.Fatal(err)
		}
		rig.svcs[n] = svc
	}
	return rig
}

func TestJoinShardRingValidation(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	net := bus.NewNetwork(clk)
	svc, err := New("lonely", clk, net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.JoinShardRing([]string{"a", "b"}, 2); err == nil {
		t.Fatal("joined a ring that does not include the service")
	}
	if got := svc.ShardRingMembers(); got != nil {
		t.Fatalf("members before join: %v", got)
	}
	if err := svc.JoinShardRing([]string{"lonely", "b"}, 2); err != nil {
		t.Fatal(err)
	}
	if got := svc.ShardRingMembers(); len(got) != 2 {
		t.Fatalf("members after join: %v", got)
	}
}

// TestShardImportAndDisseminate drives the full cross-shard cascade:
// shardA owns a fact; every other member imports it and derives from
// the surrogate. Revoking at A must propagate down A's tree and fell
// the derived records everywhere.
func TestShardImportAndDisseminate(t *testing.T) {
	rig := newShardRig(t, Options{})
	owner := rig.svcs["shardA"]
	fact := owner.Store().NewFact(credrec.True)

	derived := make(map[string]credrec.Ref)
	for _, n := range rig.names[1:] {
		svc := rig.svcs[n]
		local, err := svc.ImportShardRecord("shardA", fact)
		if err != nil {
			t.Fatal(err)
		}
		if st, _ := svc.Store().Lookup(local); st != credrec.True {
			t.Fatalf("%s surrogate state %v after import, want True", n, st)
		}
		derived[n] = svc.Store().NewDerived(credrec.OpAnd, credrec.Of(local))
	}

	// Non-permanent flap: True -> False -> True tracks everywhere.
	if err := owner.Store().SetState(fact, credrec.False); err != nil {
		t.Fatal(err)
	}
	for _, n := range rig.names[1:] {
		if st, _ := rig.svcs[n].Store().Lookup(derived[n]); st != credrec.False {
			t.Fatalf("%s derived state %v after owner falsified, want False", n, st)
		}
	}
	if err := owner.Store().SetState(fact, credrec.True); err != nil {
		t.Fatal(err)
	}
	for _, n := range rig.names[1:] {
		if st, _ := rig.svcs[n].Store().Lookup(derived[n]); st != credrec.True {
			t.Fatalf("%s derived state %v after owner restored, want True", n, st)
		}
	}

	// Permanent revocation is forever, cluster-wide.
	if err := owner.Store().Invalidate(fact); err != nil {
		t.Fatal(err)
	}
	for _, n := range rig.names[1:] {
		svc := rig.svcs[n]
		st, perm, _ := svc.Store().Resolve(derived[n])
		if st != credrec.False || !perm {
			t.Fatalf("%s derived (%v, perm=%v) after revocation, want permanent False", n, st, perm)
		}
	}
}

// TestShardImportRevokedRecord checks that importing a record that was
// revoked and swept at the owner yields a permanently false surrogate:
// revocation survives garbage collection.
func TestShardImportRevokedRecord(t *testing.T) {
	rig := newShardRig(t, Options{})
	owner := rig.svcs["shardA"]
	fact := owner.Store().NewFact(credrec.True)
	if err := owner.Store().Invalidate(fact); err != nil {
		t.Fatal(err)
	}
	owner.Store().Sweep()
	local, err := rig.svcs["shardB"].ImportShardRecord("shardA", fact)
	if err != nil {
		t.Fatal(err)
	}
	st, perm, _ := rig.svcs["shardB"].Store().Resolve(local)
	if st != credrec.False || !perm {
		t.Fatalf("surrogate of swept record is (%v, perm=%v), want permanent False", st, perm)
	}
}

// TestShardSuspicionAndResync partitions a tree edge mid-stream: the
// starved member degrades the origin and fails safe; after heal, the
// origin's next tree heartbeat plus AutoResync restore the truth —
// including a revocation issued during the partition.
func TestShardSuspicionAndResync(t *testing.T) {
	rig := newShardRig(t, Options{HeartbeatEvery: 5 * time.Second, FailsafeMissed: 3, AutoResync: true})
	owner, watcher := rig.svcs["shardA"], rig.svcs["shardB"]
	kept := owner.Store().NewFact(credrec.True)
	doomed := owner.Store().NewFact(credrec.True)
	keptLocal, err := watcher.ImportShardRecord("shardA", kept)
	if err != nil {
		t.Fatal(err)
	}
	doomedLocal, err := watcher.ImportShardRecord("shardA", doomed)
	if err != nil {
		t.Fatal(err)
	}

	// shardB is shardA's direct child in the tree rooted at shardA
	// (sorted members, fanout 2): sever that edge both ways.
	links := fault.New(rig.clk, 1)
	links.Install(rig.net)
	links.Sever("shardA", "shardB")

	// Silence for FailsafeMissed periods: Suspect, then Failed.
	for i := 0; i < 4; i++ {
		rig.clk.Advance(5 * time.Second)
		owner.HeartbeatTick()
		watcher.SuspicionTick()
	}
	if st := watcher.SourceStatus("shardA"); st != SourceFailed {
		t.Fatalf("source status %v after prolonged silence, want failed", st)
	}
	if st, _ := watcher.Store().Lookup(keptLocal); st != credrec.False {
		t.Fatalf("surrogate %v after fail-safe, want False", st)
	}

	// Revocation issued while partitioned: the treeforward to shardB is
	// dropped on the severed link.
	if err := owner.Store().Invalidate(doomed); err != nil {
		t.Fatal(err)
	}

	// Heal. The next tree heartbeat revives the source; AutoResync pulls
	// the authoritative snapshot, restoring kept and revoking doomed.
	links.Restore("shardA", "shardB")
	rig.clk.Advance(5 * time.Second)
	owner.HeartbeatTick()
	watcher.SuspicionTick()
	if st := watcher.SourceStatus("shardA"); st != SourceAlive {
		t.Fatalf("source status %v after heal+resync, want alive", st)
	}
	if st, _ := watcher.Store().Lookup(keptLocal); st != credrec.True {
		t.Fatalf("kept surrogate %v after resync, want True", st)
	}
	st, perm, _ := watcher.Store().Resolve(doomedLocal)
	if st != credrec.False || !perm {
		t.Fatalf("doomed surrogate (%v, perm=%v) after resync, want permanent False", st, perm)
	}
}

// TestClusterPendingNotifications checks that treeforward bursts
// piggyback the origin's backlog into every member's cluster-wide
// figure, and that a peer declared failed stops contributing.
func TestClusterPendingNotifications(t *testing.T) {
	rig := newShardRig(t, Options{HeartbeatEvery: 5 * time.Second, FailsafeMissed: 3})
	watcher := rig.svcs["shardB"]
	base := watcher.ClusterPendingNotifications()

	// Two origins report backlogs over the tree; the figures add up.
	for origin, claim := range map[string]int{"shardA": 42, "shardC": 7} {
		if _, err := watcher.Call(origin, "treeforward",
			TreeForwardArg{Origin: origin, Root: origin, Pressure: claim}); err != nil {
			t.Fatal(err)
		}
	}
	after := watcher.ClusterPendingNotifications()
	if after != base+49 {
		t.Fatalf("cluster pressure %d after peer claims, want %d", after, base+49)
	}

	// Once shardA goes silent long enough to be declared failed, its
	// stale claim must vanish from the aggregate.
	for i := 0; i < 4; i++ {
		rig.clk.Advance(5 * time.Second)
		// shardC keeps heartbeating over the tree; only shardA is silent.
		if _, err := watcher.Call("shardC", "treeforward",
			TreeForwardArg{Origin: "shardC", Root: "shardC", Pressure: 7}); err != nil {
			t.Fatal(err)
		}
		watcher.SuspicionTick()
	}
	if st := watcher.SourceStatus("shardA"); st != SourceFailed {
		t.Fatalf("source status %v, want failed", st)
	}
	cleared := watcher.ClusterPendingNotifications()
	if cleared != base+7 {
		t.Fatalf("cluster pressure %d after shardA failed, want %d (shardC's claim only)", cleared, base+7)
	}
}

func TestCoalesceShardEdges(t *testing.T) {
	r1 := credrec.Ref{Index: 1, Magic: 7}
	r2 := credrec.Ref{Index: 2, Magic: 9}
	edges := []ResyncEntry{
		{Ref: r1, State: credrec.True},
		{Ref: r2, State: credrec.False, Permanent: true},
		{Ref: r1, State: credrec.False},
		{Ref: r2, State: credrec.True}, // must not undo the revocation
	}
	out := coalesceShardEdges(edges)
	if len(out) != 2 {
		t.Fatalf("coalesced to %d edges, want 2", len(out))
	}
	if out[0].Ref != r1 || out[0].State != credrec.False {
		t.Fatalf("edge 0 = %+v, want r1 False (last writer wins)", out[0])
	}
	if out[1].Ref != r2 || out[1].State != credrec.False || !out[1].Permanent {
		t.Fatalf("edge 1 = %+v, want r2 permanent False (sticky)", out[1])
	}
}
