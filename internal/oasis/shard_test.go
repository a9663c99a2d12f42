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

// shardRig is a 4-member cluster on one in-process bus: each member is
// a full service with its own store, and a record crosses between
// members only over a watch at its issuer.
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
		rig.svcs[n] = svc
	}
	return rig
}

// TestShardImportAndDisseminate drives the cross-member cascade:
// shardA owns a fact; every other member watches it through the flat
// watch and derives from the surrogate. Changes at A
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
	// shardB.
	links := fault.New(rig.clk, 1)
	links.Install(rig.net)
	links.Sever("shardA", "shardB")

	// Silence for FailsafeMissed periods: Suspect, then Failed.
	for i := 0; i < 4; i++ {
		rig.clk.Advance(5 * time.Second)
		owner.HeartbeatTick()
		watcher.SuspicionTick()
		watcher.settle()
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
	watcher.settle()
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
// record's changes travel on and leaves every other link whole:
// shardD watches a record of shardA's and one each of shardB's and
// shardC's, only A–D is cut, and A revokes its record. D goes on
// hearing B's and C's heartbeats every period. They prove B and C are
// up, not that nothing A sent D was lost (§4.10), so D must degrade A
// and fail its surrogate safe within the budget, and keep B and C
// alive.
func TestRelayedHeartbeatDoesNotVouchForSource(t *testing.T) {
	rig := newShardRig(t, Options{HeartbeatEvery: 5 * time.Second, FailsafeMissed: 3, AutoResync: true})
	owner, watcher := rig.svcs["shardA"], rig.svcs["shardD"]
	fact := owner.Store().NewFact(credrec.True)
	local, err := watcher.watchRecord("shardA", fact)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"shardB", "shardC"} {
		if _, err := watcher.watchRecord(n, rig.svcs[n].Store().NewFact(credrec.True)); err != nil {
			t.Fatal(err)
		}
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
			rig.svcs[n].settle()
		}
	}
	if st, _ := watcher.Store().Lookup(local); st == credrec.True {
		t.Fatalf("t=40s: shardD still validates a record shardA revoked behind a cut link")
	}
	if st := watcher.SourceStatus("shardA"); st == SourceAlive {
		t.Fatalf("t=40s: shardA %v at shardD on other members' heartbeats alone", st)
	}
	for _, n := range []string{"shardB", "shardC"} {
		if st := watcher.SourceStatus(n); st != SourceAlive {
			t.Fatalf("t=40s: %s %v at shardD over a whole link", n, st)
		}
	}
}

// TestClusterPendingNotifications: the backlog a gateway sheds on is the
// service's own, and a link policy's delay queue is the one deployment
// of the bus that fills it. Each Modified event held on a delayed link
// counts until the network delivers it, and the figure falls back to
// where it stood.
func TestClusterPendingNotifications(t *testing.T) {
	rig := newShardRig(t, Options{})
	owner := rig.svcs["shardA"]
	fact := owner.Store().NewFact(credrec.True)
	for _, n := range rig.names[1:] {
		if _, err := rig.svcs[n].watchRecord("shardA", fact); err != nil {
			t.Fatal(err)
		}
	}
	base := owner.ClusterPendingNotifications()
	links := fault.New(rig.clk, 1)
	links.Install(rig.net)
	for _, n := range rig.names[1:] {
		links.SetFaults("shardA", n, fault.Faults{Delay: time.Second})
	}
	if err := owner.Store().SetState(fact, credrec.False); err != nil {
		t.Fatal(err)
	}
	if got, want := owner.ClusterPendingNotifications(), base+len(rig.names)-1; got != want {
		t.Fatalf("backlog %d with one event held per watcher, want %d", got, want)
	}
	rig.clk.Advance(time.Second)
	rig.net.Flush()
	if got := owner.ClusterPendingNotifications(); got != base {
		t.Fatalf("backlog %d after the delayed events were delivered, want %d", got, base)
	}
	for _, n := range rig.names[1:] {
		if st, _ := rig.svcs[n].Store().Lookup(rig.svcs[n].extRecords["shardA"][fact.Uint64()]); st != credrec.False {
			t.Fatalf("%s surrogate %v after the delayed event, want False", n, st)
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
