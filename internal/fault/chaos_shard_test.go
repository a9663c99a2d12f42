package fault

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"oasis/internal/bus"
	"oasis/internal/cert"
	"oasis/internal/clock"
	"oasis/internal/credrec"
	"oasis/internal/ids"
	"oasis/internal/oasis"
	"oasis/internal/value"
)

// Sharded-cluster chaos: four shard daemons joined in one ring, with
// cross-shard surrogates held through the flat watch
// (oasis.WatchCertificate) and the ring's tree carrying only backlog
// claims (oasis.JoinShardRing). The scenario cuts one link
// mid-revocation-storm and asserts the same two obligations as the
// two-service suite: a member cut off from the origin fails safe within
// the budget, and after the heal every shard's store converges to the
// image of a run where the cut never happened. A cut the tree alone
// runs over changes no verdict at all.

// shardWorld is a 4-member shard cluster under a fault plane. With
// sorted members [A B C D] and fanout 2, the tree rooted at shardA is
// A -> {B, C}, B -> {D}: A's claims reach D only through B, and its
// watch streams go straight to each member.
type shardWorld struct {
	t     *testing.T
	clk   *clock.Virtual
	net   *bus.Network
	plane *Plane
	names []string
	svcs  map[string]*oasis.Service
}

func newShardWorld(t *testing.T, seed int64) *shardWorld {
	t.Helper()
	clk := clock.NewVirtual(time.Unix(0, 0))
	net := bus.NewNetwork(clk)
	plane := New(clk, seed)
	plane.Install(net)
	names := []string{"shardA", "shardB", "shardC", "shardD"}
	w := &shardWorld{t: t, clk: clk, net: net, plane: plane, names: names,
		svcs: make(map[string]*oasis.Service)}
	for _, n := range names {
		svc, err := oasis.New(n, clk, net, chaosOpts())
		if err != nil {
			t.Fatal(err)
		}
		if n == "shardA" {
			if err := svc.AddRolefile("main", chaosLoginRolefile); err != nil {
				t.Fatal(err)
			}
		}
		if err := svc.JoinShardRing(names, 2); err != nil {
			t.Fatal(err)
		}
		w.svcs[n] = svc
	}
	return w
}

// drive advances the cluster one virtual second at a time; on heartbeat
// boundaries every member heartbeats its watchers and its own tree (in
// member order — the driver is single-threaded, so runs reproduce).
func (w *shardWorld) drive(seconds int, hooks map[int]func(), each func(i int)) {
	hbTicks := int(hbPeriod / time.Second)
	for i := 1; i <= seconds; i++ {
		w.clk.Advance(time.Second)
		w.plane.Tick()
		w.net.Flush()
		if i%hbTicks == 0 {
			for _, n := range w.names {
				w.svcs[n].HeartbeatTick()
			}
			w.net.Flush()
			for _, n := range w.names {
				w.svcs[n].SuspicionTick()
			}
		}
		if h := hooks[i]; h != nil {
			h()
		}
		if each != nil {
			each(i)
		}
	}
}

// images snapshots every member's store fingerprint in member order.
func (w *shardWorld) images() []byte {
	var buf bytes.Buffer
	for _, n := range w.names {
		fmt.Fprintf(&buf, "== %s ==\n", n)
		buf.Write(w.svcs[n].Store().Image())
	}
	return buf.Bytes()
}

// login enters LoggedOn for one user at shardA, the ring's issuer.
func (w *shardWorld) login(host, user string) (ids.ClientID, *cert.RMC) {
	w.t.Helper()
	c := ids.NewHostAuthority(host, w.clk.Now()).NewDomain()
	rmc, err := w.svcs["shardA"].Enter(oasis.EnterRequest{
		Client: c, Rolefile: "main", Role: "LoggedOn",
		Args: []value.Value{
			value.Object("Login.userid", user),
			value.Object("Login.host", host),
		},
	})
	if err != nil {
		w.t.Fatal(err)
	}
	return c, rmc
}

// shardPartitionRun is the acceptance scenario: shardA issues two
// logins, and every other member holds a surrogate of both through
// WatchCertificate; the link cut (nil for none) severs at t=30s and
// restores at t=60s; one login is revoked at t=40s, mid-partition. A
// member cut off from shardA can only learn of that revocation by
// post-heal resync. It returns the plane transcript, the per-second
// state log, and the cluster-wide store image.
func shardPartitionRun(t *testing.T, seed int64, cut []string) (string, []string, []byte) {
	t.Helper()
	w := newShardWorld(t, seed)
	owner := w.svcs["shardA"]
	keptC, kept := w.login("ely", "alice")
	doomedC, doomed := w.login("cam", "bob")

	type surrogate struct{ kept, doomed credrec.Ref }
	held := make(map[string]surrogate)
	for _, n := range w.names[1:] {
		svc := w.svcs[n]
		k, _, err := svc.WatchCertificate(kept, keptC)
		if err != nil {
			t.Fatal(err)
		}
		d, _, err := svc.WatchCertificate(doomed, doomedC)
		if err != nil {
			t.Fatal(err)
		}
		held[n] = surrogate{kept: k, doomed: d}
	}

	// starved is the member cut off from the origin, if the cut is one of
	// shardA's own links.
	starved := ""
	if cut != nil {
		w.plane.SetSchedule([]Step{
			{At: 30 * time.Second, Kind: "sever", A: cut[0], B: cut[1]},
			{At: 60 * time.Second, Kind: "restore", A: cut[0], B: cut[1]},
		})
		if cut[0] == "shardA" {
			starved = cut[1]
		}
	}

	hooks := map[int]func(){
		40: func() {
			if err := owner.Exit(doomed, doomedC); err != nil {
				t.Fatal(err)
			}
		},
	}
	hbTicks := int(hbPeriod / time.Second)
	var log []string
	w.drive(120, hooks, func(i int) {
		line := fmt.Sprintf("t=%d", i)
		for _, n := range w.names[1:] {
			svc, s := w.svcs[n], held[n]
			keptSt, _, _ := svc.Store().Resolve(s.kept)
			doomedSt, doomedPerm, _ := svc.Store().Resolve(s.doomed)
			line += fmt.Sprintf(" %s:kept=%v,doomed=%v/%t", n, keptSt, doomedSt, doomedPerm)

			// Safety off the starved member: every member whose own link
			// to the origin stands sees the revocation the second it
			// happens, whatever the tree's state.
			if i >= 40 && n != starved && doomedSt != credrec.False {
				t.Fatalf("t=%d: %s missed the revocation despite a live link to the origin", i, n)
			}
		}
		log = append(log, line)
		if starved == "" {
			return
		}
		// Safety on the starved member: it hears nothing from the origin
		// past t=30 — the tree's relays do not count — so within the
		// fail-safe budget every surrogate held from shardA is refused,
		// including the revoked one it cannot know about (§6.8.4 bounds
		// the exposure).
		d := w.svcs[starved]
		if i >= 30+missedHB*hbTicks && i < 60 {
			if st, _, _ := d.Store().Resolve(held[starved].kept); st == credrec.True {
				t.Fatalf("t=%d: starved shard still trusts an unreachable origin", i)
			}
		}
		if i >= 40+missedHB*hbTicks {
			if st, _, _ := d.Store().Resolve(held[starved].doomed); st == credrec.True {
				t.Fatalf("t=%d: revoked record validated on the starved shard", i)
			}
		}
		// Liveness: within 3 heartbeats of the heal the resync has run —
		// the surviving record is trusted again and the revocation that
		// happened mid-partition has landed, permanently.
		if i >= 60+3*hbTicks {
			if st, _, _ := d.Store().Resolve(held[starved].kept); st != credrec.True {
				t.Fatalf("t=%d: surviving record not restored on healed shard", i)
			}
			st, perm, _ := d.Store().Resolve(held[starved].doomed)
			if st != credrec.False || !perm {
				t.Fatalf("t=%d: mid-partition revocation not recovered by resync (%v, perm=%t)", i, st, perm)
			}
		}
	})
	return w.plane.Transcript(), log, w.images()
}

func TestChaosShardPartitionResync(t *testing.T) {
	const seed = 23
	originCut := []string{"shardA", "shardD"}
	tr1, log1, img1 := shardPartitionRun(t, seed, originCut)

	// Determinism: same seed, same run — transcript, state log, and
	// every shard's final store, bit for bit.
	tr2, log2, img2 := shardPartitionRun(t, seed, originCut)
	if tr1 != tr2 {
		t.Fatalf("same seed, different transcripts:\n--- run1 ---\n%s\n--- run2 ---\n%s", tr1, tr2)
	}
	sameLog(t, "same seed", log1, log2)
	if !bytes.Equal(img1, img2) {
		t.Fatal("same seed, different final stores")
	}

	// Convergence: the healed cluster is indistinguishable from one that
	// never partitioned — the starvation, fail-safe demotion and resync
	// left no trace beyond the revocation they recovered.
	_, refLog, ref := shardPartitionRun(t, seed, nil)
	if !bytes.Equal(img1, ref) {
		t.Fatalf("post-heal cluster diverges from fault-free run:\n-- chaos --\n%s\n-- reference --\n%s", img1, ref)
	}

	// A cut only the tree runs over (B -> D in shardA's tree) carries no
	// verdict: every second of it reads as the fault-free run.
	_, treeLog, treeImg := shardPartitionRun(t, seed, []string{"shardB", "shardD"})
	sameLog(t, "tree-only cut vs fault-free", treeLog, refLog)
	if !bytes.Equal(treeImg, ref) {
		t.Fatalf("tree-only cut diverges from fault-free run:\n-- cut --\n%s\n-- reference --\n%s", treeImg, ref)
	}
}

// sameLog fails the test at the first second two state logs disagree.
func sameLog(t *testing.T, what string, a, b []string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: log lengths differ: %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: state logs diverge at %d:\n%s\n%s", what, i, a[i], b[i])
		}
	}
}
