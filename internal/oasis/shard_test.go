package oasis

import (
	"expvar"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oasis/internal/bus"
	"oasis/internal/clock"
	"oasis/internal/credrec"
	"oasis/internal/event"
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

// TestShardImportAndDisseminate drives the cross-shard cascade the
// ring deploys: shardA owns a fact; every other member watches it
// through the flat watch and derives from the surrogate. Changes at A
// must reach every member and fell the derived records everywhere.
func TestShardImportAndDisseminate(t *testing.T) {
	rig := newShardRig(t, Options{})
	owner := rig.svcs["shardA"]
	fact := owner.Store().NewFact(credrec.True)

	derived := make(map[string]credrec.Ref)
	for _, n := range rig.names[1:] {
		svc := rig.svcs[n]
		local, err := svc.watchRecord("shardA", fact)
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

// TestShardImportRevokedRecord checks that watching a record that was
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
	local, err := rig.svcs["shardB"].watchRecord("shardA", fact)
	if err != nil {
		t.Fatal(err)
	}
	st, perm, _ := rig.svcs["shardB"].Store().Resolve(local)
	if st != credrec.False || !perm {
		t.Fatalf("surrogate of swept record is (%v, perm=%v), want permanent False", st, perm)
	}
}

// TestShardSuspicionAndResync partitions a watcher from the owner
// mid-stream: the starved member degrades the origin and fails safe;
// after heal, the origin's next heartbeat plus AutoResync restore the
// truth — including a revocation issued during the partition.
func TestShardSuspicionAndResync(t *testing.T) {
	rig := newShardRig(t, Options{HeartbeatEvery: 5 * time.Second, FailsafeMissed: 3, AutoResync: true})
	owner, watcher := rig.svcs["shardA"], rig.svcs["shardB"]
	kept := owner.Store().NewFact(credrec.True)
	doomed := owner.Store().NewFact(credrec.True)
	keptLocal, err := watcher.watchRecord("shardA", kept)
	if err != nil {
		t.Fatal(err)
	}
	doomedLocal, err := watcher.watchRecord("shardA", doomed)
	if err != nil {
		t.Fatal(err)
	}

	// Sever the link both ways; it carries shardA's watch stream to
	// shardB and is also an edge of shardA's tree.
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

	// Revocation issued while partitioned: its Modified event to shardB
	// is dropped on the severed link.
	if err := owner.Store().Invalidate(doomed); err != nil {
		t.Fatal(err)
	}

	// Heal. The next heartbeat revives the source; AutoResync pulls the
	// authoritative snapshot, restoring kept and revoking doomed.
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

// TestRelayedHeartbeatDoesNotVouchForSource severs the one link a
// record's changes travel on and leaves the tree whole around it:
// shardD watches a record of shardA's, only A–D is cut, and A revokes
// the record. In shardA's tree (sorted members, fanout 2: A -> {B, C},
// B -> {D}) shardB still relays A's burst to D every period. That burst
// proves B is up, not that nothing A sent D was lost (§4.10), so D must
// degrade A and fail the surrogate safe within the budget.
func TestRelayedHeartbeatDoesNotVouchForSource(t *testing.T) {
	rig := newShardRig(t, Options{HeartbeatEvery: 5 * time.Second, FailsafeMissed: 3, AutoResync: true})
	owner, watcher := rig.svcs["shardA"], rig.svcs["shardD"]
	fact := owner.Store().NewFact(credrec.True)
	local, err := watcher.watchRecord("shardA", fact)
	if err != nil {
		t.Fatal(err)
	}

	links := fault.New(rig.clk, 1)
	links.Install(rig.net)
	links.Sever("shardA", "shardD")
	if err := owner.Store().Invalidate(fact); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		rig.clk.Advance(5 * time.Second)
		for _, n := range rig.names {
			rig.svcs[n].HeartbeatTick()
		}
		for _, n := range rig.names {
			rig.svcs[n].SuspicionTick()
		}
	}
	if st, _ := watcher.Store().Lookup(local); st == credrec.True {
		t.Fatalf("t=40s: shardD still validates a record shardA revoked behind a cut link")
	}
	if st := watcher.SourceStatus("shardA"); st == SourceAlive {
		t.Fatalf("t=40s: shardA %v at shardD on relayed heartbeats alone", st)
	}
}

// TestClusterPendingNotifications checks that treeforward claims add up
// into every member's cluster-wide figure, that they make nobody a
// watched source, and that a claim which stops arriving ages out after
// the fail-safe budget while a fresh one keeps counting.
func TestClusterPendingNotifications(t *testing.T) {
	rig := newShardRig(t, Options{HeartbeatEvery: 5 * time.Second, FailsafeMissed: 3})
	watcher := rig.svcs["shardB"]
	base := watcher.ClusterPendingNotifications()
	claim := func(origin string, backlog int) {
		t.Helper()
		if _, err := watcher.Call(origin, "treeforward",
			TreeForwardArg{Origin: origin, Root: origin, Pressure: backlog}); err != nil {
			t.Fatal(err)
		}
	}

	// Two origins report backlogs over the tree; the figures add up.
	claim("shardA", 42)
	claim("shardC", 7)
	if after := watcher.ClusterPendingNotifications(); after != base+49 {
		t.Fatalf("cluster pressure %d after peer claims, want %d", after, base+49)
	}
	if srcs := watcher.receiver.Sources(); len(srcs) != 0 {
		t.Fatalf("backlog claims made watched sources of %v", srcs)
	}

	// shardA falls silent while shardC keeps claiming every period: A's
	// claim counts until it is FailsafeMissed periods old, then not.
	for i := 1; i <= 3; i++ {
		rig.clk.Advance(5 * time.Second)
		claim("shardC", 7)
		want := base + 49
		if i == 3 {
			want = base + 7
		}
		if got := watcher.ClusterPendingNotifications(); got != want {
			t.Fatalf("cluster pressure %d after %d silent periods of shardA, want %d", got, i, want)
		}
	}
}

// TestStalledWatcherQueueVisibleNotShed: a watcher that stops reading
// fills its TCP link's writer queue. The bus's "pending_notes" figure
// shows that queue growing for its destination, while the backlog the
// gateway sheds on (ClusterPendingNotifications) does not count it.
func TestStalledWatcherQueueVisibleNotShed(t *testing.T) {
	addr := stalledPeer(t)

	clk := clock.Real()
	n := bus.NewNetwork(clk)
	svc, err := New("Login", clk, n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AddRemote("Conf", addr); err != nil {
		t.Fatal(err)
	}
	pending := func() int {
		return svc.Vars().Get("bus").(*expvar.Map).Get("pending_notes").(expvar.Func).Value().(map[string]int)["Conf"]
	}
	shed := svc.ClusterPendingNotifications()

	// Two senders: one of them ends up blocked in the socket write as
	// the flusher, and the other keeps enqueueing behind it.
	var stop atomic.Bool
	var senders sync.WaitGroup
	big := strings.Repeat("x", 1<<10)
	for range 2 {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for seq := uint64(1); !stop.Load(); seq++ {
				n.Send("Login", "Conf", event.Notification{Source: "Login", SessionID: 1, Seq: seq, Event: event.Event{Name: big}})
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for pending() < 1000 && time.Now().Before(deadline) {
		if got := svc.ClusterPendingNotifications(); got != shed {
			t.Errorf("shed figure %d while the queue grows, want %d", got, shed)
		}
		time.Sleep(time.Millisecond)
	}
	got, shedNow := pending(), svc.ClusterPendingNotifications()
	stop.Store(true)
	n.CloseRemotes()
	senders.Wait()
	if got < 1000 {
		t.Fatalf("pending_notes for the stalled watcher reached %d, want it to grow past 1000", got)
	}
	if shedNow != shed {
		t.Fatalf("shed figure %d with %d notes queued, want %d", shedNow, got, shed)
	}
}
