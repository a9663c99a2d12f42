package fault

import (
	"bytes"
	"expvar"
	"fmt"
	"testing"
	"time"

	"oasis/internal/bus"
	"oasis/internal/cert"
	"oasis/internal/clock"
	"oasis/internal/ids"
	"oasis/internal/mssa"
	"oasis/internal/oasis"
	"oasis/internal/value"
)

// The chaos suite drives whole OASIS deployments through seeded fault
// schedules and asserts the two §4.10 obligations:
//
//   - safety: once a certificate's backing credential is revoked — or
//     once the fail-safe budget for an unreachable source has run out —
//     no validation of it succeeds anywhere, even mid-partition;
//   - liveness: after the fault heals, surviving memberships are
//     restored within a bounded number of heartbeats, and the watcher's
//     store converges to the same image a fault-free run produces.
//
// Every run is a pure function of (seed, schedule): the clock is
// virtual, the only randomness is the plane's per-link streams, and the
// driver is single-threaded — so each scenario can simply be run twice
// and compared transcript for transcript.

const (
	hbPeriod   = 5 * time.Second
	missedHB   = 2 // fail-safe after 2 heartbeat periods of silence
	tickSlices = 1 // drive resolution: 1s
)

// chaosOpts is the watcher-side configuration every scenario uses.
func chaosOpts() oasis.Options {
	return oasis.Options{
		HeartbeatEvery: hbPeriod,
		FailsafeMissed: missedHB,
		AutoResync:     true,
	}
}

// world is a two-service deployment (Login issuing, Conf watching)
// under a fault plane.
type world struct {
	t     *testing.T
	clk   *clock.Virtual
	net   *bus.Network
	plane *Plane
	login *oasis.Service
	conf  *oasis.Service
	hosts map[string]*ids.HostAuthority
}

const chaosLoginRolefile = `
def LoggedOn(u, h) u: Login.userid h: Login.host
LoggedOn(u, h) <-
`

const chaosConfRolefile = `
Member(u) <- Login.LoggedOn(u, h)*
`

func newWorld(t *testing.T, seed int64) *world {
	t.Helper()
	clk := clock.NewVirtual(time.Unix(0, 0))
	net := bus.NewNetwork(clk)
	plane := New(clk, seed)
	plane.Install(net)
	login, err := oasis.New("Login", clk, net, oasis.Options{HeartbeatEvery: hbPeriod})
	if err != nil {
		t.Fatal(err)
	}
	if err := login.AddRolefile("main", chaosLoginRolefile); err != nil {
		t.Fatal(err)
	}
	conf, err := oasis.New("Conf", clk, net, chaosOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := conf.AddRolefile("main", chaosConfRolefile); err != nil {
		t.Fatal(err)
	}
	return &world{t: t, clk: clk, net: net, plane: plane,
		login: login, conf: conf, hosts: make(map[string]*ids.HostAuthority)}
}

func (w *world) user(host, user string) (ids.ClientID, *cert.RMC) {
	w.t.Helper()
	ha, ok := w.hosts[host]
	if !ok {
		ha = ids.NewHostAuthority(host, w.clk.Now())
		w.hosts[host] = ha
	}
	c := ha.NewDomain()
	rmc, err := w.login.Enter(oasis.EnterRequest{
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

func (w *world) member(c ids.ClientID, login *cert.RMC, user string) *cert.RMC {
	w.t.Helper()
	m, err := w.conf.Enter(oasis.EnterRequest{
		Client: c, Rolefile: "main", Role: "Member",
		Args:  []value.Value{value.Object("Login.userid", user)},
		Creds: []*cert.RMC{login},
	})
	if err != nil {
		w.t.Fatal(err)
	}
	return m
}

// drive advances the world one virtual second at a time: clock, due
// schedule steps, queued deliveries, and — on heartbeat boundaries —
// the issuer's heartbeat fan-out and the watcher's suspicion machine.
// hooks run after the boundary work of their second; each runs last.
func (w *world) drive(seconds int, hooks map[int]func(), each func(i int)) {
	for i := 1; i <= seconds; i++ {
		w.clk.Advance(time.Second)
		w.plane.Tick()
		w.net.Flush()
		settle(w.conf)
		if i%int(hbPeriod/time.Second) == 0 {
			w.login.HeartbeatTick()
			settle(w.conf)
			w.net.Flush()
			settle(w.conf)
			w.conf.SuspicionTick()
			settle(w.conf)
		}
		if h := hooks[i]; h != nil {
			h()
		}
		if each != nil {
			each(i)
		}
	}
}

// settle waits until no resync is in flight at any of svcs, as their
// "sources" var reports it. An automatic resync runs on a goroutine of
// its own; a drive loop reads a step's outcome, and takes the next step,
// only once the resyncs the step started have applied their snapshots,
// so a run stays a function of its seed.
func settle(svcs ...*oasis.Service) {
	for _, s := range svcs {
		for resyncing(s) {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

func resyncing(s *oasis.Service) bool {
	for _, v := range s.Vars().Get("sources").(expvar.Func).Value().(map[string]any) {
		if v.(map[string]any)["resyncing"].(bool) {
			return true
		}
	}
	return false
}

// partitionHealRun is one full acceptance scenario: a flaky WAN link
// (duplication + jitter) splits at t=30s and heals at t=60s; bob's
// login is revoked mid-partition. It returns the plane transcript, the
// per-second validation log and the watcher's final store image.
func partitionHealRun(t *testing.T, seed int64, partitioned bool) (string, []string, []byte) {
	t.Helper()
	w := newWorld(t, seed)
	aliceC, aliceLogin := w.user("ely", "alice")
	aliceM := w.member(aliceC, aliceLogin, "alice")
	bobC, bobLogin := w.user("cam", "bob")
	bobM := w.member(bobC, bobLogin, "bob")

	w.plane.SetFaults("Login", "Conf", Faults{Dup: 0.2, Jitter: 300 * time.Millisecond})
	if partitioned {
		w.plane.SetSchedule([]Step{
			{At: 30 * time.Second, Kind: "split", Name: "wan", Side1: []string{"Login"}, Side2: []string{"Conf"}},
			{At: 60 * time.Second, Kind: "heal", Name: "wan"},
		})
	}

	var log []string
	hooks := map[int]func(){
		40: func() {
			if err := w.login.Exit(bobLogin, bobC); err != nil {
				t.Fatal(err)
			}
		},
	}
	w.drive(120, hooks, func(i int) {
		aliceOK := w.conf.Validate(aliceM, aliceC) == nil
		bobOK := w.conf.Validate(bobM, bobC) == nil
		bobAtSource := w.login.Validate(bobLogin, bobC) == nil
		log = append(log, fmt.Sprintf("t=%d alice=%t bob=%t bobAtSource=%t", i, aliceOK, bobOK, bobAtSource))

		// Safety at the issuer: the revocation is effective there the
		// instant it happens, partition or not.
		if i >= 40 && bobAtSource {
			t.Fatalf("t=%d: revoked login still validates at the issuer", i)
		}
		if !partitioned {
			return
		}
		// Safety at the watcher: bob must never validate again once the
		// fail-safe budget after the revocation has elapsed — the
		// partition hides the revocation, so the budget is what bounds
		// the exposure (§6.8.4).
		if i >= 40+missedHB*int(hbPeriod/time.Second) && bobOK {
			t.Fatalf("t=%d: revoked membership validated mid-partition", i)
		}
		// Fail-safe stance mid-partition: with Login unreachable past
		// the budget, even alice's (really still valid) membership must
		// be refused.
		if i >= 30+missedHB*int(hbPeriod/time.Second) && i < 60 && aliceOK {
			t.Fatalf("t=%d: validation succeeded against an unreachable source", i)
		}
		// Liveness: within 3 heartbeats of the heal, alice is back.
		if i >= 60+3*int(hbPeriod/time.Second) && !aliceOK {
			t.Fatalf("t=%d: surviving membership not restored after heal", i)
		}
	})
	return w.plane.Transcript(), log, w.conf.Store().Image()
}

func TestChaosPartitionHealLoginConf(t *testing.T) {
	const seed = 42
	tr1, log1, img1 := partitionHealRun(t, seed, true)

	// Determinism: the same seed reproduces the chaos run bit for bit —
	// fault transcript, validation outcomes, and final store.
	tr2, log2, img2 := partitionHealRun(t, seed, true)
	if tr1 != tr2 {
		t.Fatalf("same seed, different transcripts:\n--- run1 ---\n%s\n--- run2 ---\n%s", tr1, tr2)
	}
	if len(log1) != len(log2) {
		t.Fatalf("log lengths differ: %d vs %d", len(log1), len(log2))
	}
	for i := range log1 {
		if log1[i] != log2[i] {
			t.Fatalf("validation logs diverge at %d: %q vs %q", i, log1[i], log2[i])
		}
	}
	if !bytes.Equal(img1, img2) {
		t.Fatal("same seed, different final stores")
	}

	// A different seed draws different faults.
	tr3, _, _ := partitionHealRun(t, seed+1, true)
	if tr1 == tr3 {
		t.Fatal("different seeds produced identical transcripts")
	}

	// Convergence: the post-heal store equals the store of a run where
	// the partition never happened — the resync left no trace beyond
	// the revocation it recovered.
	_, _, ref := partitionHealRun(t, seed, false)
	if !bytes.Equal(img1, ref) {
		t.Fatalf("post-heal store diverges from fault-free run:\n-- chaos --\n%s\n-- reference --\n%s", img1, ref)
	}
}

// TestChaosLossyGolfClub runs the §3.4.5 golf club on a lossy link:
// jack joins by quorum (a recommendation from arnold, election by
// gary); then 35%% of Login->Golf notifications drop. Losing the
// logout notification must not let jack keep playing: gap detection
// and the fail-safe budget bound the exposure, and the surviving
// founders get their memberships back once the link is clean.
func TestChaosLossyGolfClub(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	net := bus.NewNetwork(clk)
	plane := New(clk, 7)
	plane.Install(net)
	login, err := oasis.New("Login", clk, net, oasis.Options{HeartbeatEvery: hbPeriod})
	if err != nil {
		t.Fatal(err)
	}
	if err := login.AddRolefile("main", chaosLoginRolefile); err != nil {
		t.Fatal(err)
	}
	golf, err := oasis.New("Golf", clk, net, chaosOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := golf.AddRolefile("main", `
def Member(p) p: Login.userid
Member(p)  <- Login.LoggedOn(p, h) : p in founders
Rec(p, m1) <- Login.LoggedOn(p, h)* <| Member(m1)
Member(p)  <- Rec(p, m1)* <| Member(m2) : m1 != m2
`); err != nil {
		t.Fatal(err)
	}
	golf.Groups().AddMember("arnold", "founders")
	golf.Groups().AddMember("gary", "founders")

	hosts := ids.NewHostAuthority("club", clk.Now())
	uid := func(u string) value.Value { return value.Object("Login.userid", u) }
	logOn := func(user string) (ids.ClientID, *cert.RMC) {
		c := hosts.NewDomain()
		rmc, err := login.Enter(oasis.EnterRequest{
			Client: c, Rolefile: "main", Role: "LoggedOn",
			Args: []value.Value{uid(user), value.Object("Login.host", "club")},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c, rmc
	}
	arnoldC, arnoldLogin := logOn("arnold")
	arnold, err := golf.Enter(oasis.EnterRequest{Client: arnoldC, Rolefile: "main", Role: "Member",
		Args: []value.Value{uid("arnold")}, Creds: []*cert.RMC{arnoldLogin}})
	if err != nil {
		t.Fatal(err)
	}
	garyC, garyLogin := logOn("gary")
	gary, err := golf.Enter(oasis.EnterRequest{Client: garyC, Rolefile: "main", Role: "Member",
		Args: []value.Value{uid("gary")}, Creds: []*cert.RMC{garyLogin}})
	if err != nil {
		t.Fatal(err)
	}

	// jack's quorum join: recommended by arnold, elected by gary.
	jackC, jackLogin := logOn("jack")
	d1, _, err := golf.Delegate(oasis.DelegateRequest{
		Client: arnoldC, Rolefile: "main", Role: "Rec",
		Args: []value.Value{uid("jack"), uid("arnold")}, ElectorCert: arnold,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := golf.EnterDelegated(oasis.EnterRequest{
		Client: jackC, Rolefile: "main", Role: "Rec",
		Creds: []*cert.RMC{jackLogin}, Delegation: d1,
	})
	if err != nil {
		t.Fatal(err)
	}
	d2, _, err := golf.Delegate(oasis.DelegateRequest{
		Client: garyC, Rolefile: "main", Role: "Member",
		Args: []value.Value{uid("jack")}, ElectorCert: gary,
	})
	if err != nil {
		t.Fatal(err)
	}
	jack, err := golf.EnterDelegated(oasis.EnterRequest{
		Client: jackC, Rolefile: "main", Role: "Member",
		Creds: []*cert.RMC{rec}, Delegation: d2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := golf.Validate(jack, jackC); err != nil {
		t.Fatalf("quorum membership invalid before chaos: %v", err)
	}

	plane.SetSchedule([]Step{
		{At: 10 * time.Second, Kind: "faults", A: "Login", B: "Golf", Faults: Faults{Drop: 0.35}},
		{At: 150 * time.Second, Kind: "faults", A: "Login", B: "Golf"}, // link clean again
	})

	hbTicks := int(hbPeriod / time.Second)
	for i := 1; i <= 180; i++ {
		clk.Advance(time.Second)
		plane.Tick()
		net.Flush()
		settle(golf)
		if i%hbTicks == 0 {
			login.HeartbeatTick()
			settle(golf)
			net.Flush()
			settle(golf)
			golf.SuspicionTick()
			settle(golf)
		}
		if i == 50 {
			// jack logs off; the notification races a 35% drop rate.
			if err := login.Exit(jackLogin, jackC); err != nil {
				t.Fatal(err)
			}
		}
		// Safety: after the fail-safe budget, jack's membership — and
		// the Rec credential under it — must never validate again.
		if i >= 50+missedHB*hbTicks {
			if golf.Validate(jack, jackC) == nil {
				t.Fatalf("t=%d: revoked quorum membership validated on lossy link", i)
			}
			if golf.Validate(rec, jackC) == nil {
				t.Fatalf("t=%d: recommendation outlived the revoked login", i)
			}
		}
	}
	// Liveness: with the link clean, the founders' memberships are live.
	if err := golf.Validate(gary, garyC); err != nil {
		t.Fatalf("gary not restored after loss cleared: %v", err)
	}
	if err := golf.Validate(arnold, arnoldC); err != nil {
		t.Fatalf("arnold not restored after loss cleared: %v", err)
	}
	if drops := plane.Drops(); drops == 0 {
		t.Fatal("lossy scenario dropped nothing — chaos not engaged")
	}
}

// TestChaosMSSAPartition partitions an MSSA custode from the Login
// service: a user who logged out during the partition must not regain
// file access after the heal, while a user who stayed logged on must.
func TestChaosMSSAPartition(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	net := bus.NewNetwork(clk)
	plane := New(clk, 11)
	plane.Install(net)
	login, err := oasis.New("Login", clk, net, oasis.Options{HeartbeatEvery: hbPeriod})
	if err != nil {
		t.Fatal(err)
	}
	if err := login.AddRolefile("main", chaosLoginRolefile); err != nil {
		t.Fatal(err)
	}
	fc, err := mssa.NewCustodeWith("FFC", clk, net, chaosOpts())
	if err != nil {
		t.Fatal(err)
	}
	acl, err := fc.CreateACL(mssa.MustParseACL("rjh21=rw guest=r"), mssa.FileID{})
	if err != nil {
		t.Fatal(err)
	}
	fileID, err := fc.Create([]byte("minutes"), acl)
	if err != nil {
		t.Fatal(err)
	}

	hosts := ids.NewHostAuthority("wolfson", clk.Now())
	logOn := func(user string) (ids.ClientID, *cert.RMC) {
		c := hosts.NewDomain()
		rmc, err := login.Enter(oasis.EnterRequest{
			Client: c, Rolefile: "main", Role: "LoggedOn",
			Args: []value.Value{
				value.Object("Login.userid", user),
				value.Object("Login.host", "wolfson"),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c, rmc
	}
	ownerC, ownerLogin := logOn("rjh21")
	ownerUse, err := fc.EnterUseAcl(ownerC, ownerLogin, acl)
	if err != nil {
		t.Fatal(err)
	}
	guestC, guestLogin := logOn("guest")
	guestUse, err := fc.EnterUseAcl(guestC, guestLogin, acl)
	if err != nil {
		t.Fatal(err)
	}

	plane.SetSchedule([]Step{
		{At: 30 * time.Second, Kind: "sever", A: "Login", B: "FFC"},
		{At: 60 * time.Second, Kind: "restore", A: "Login", B: "FFC"},
	})

	hbTicks := int(hbPeriod / time.Second)
	for i := 1; i <= 90; i++ {
		clk.Advance(time.Second)
		plane.Tick()
		net.Flush()
		settle(fc.Service())
		if i%hbTicks == 0 {
			login.HeartbeatTick()
			settle(fc.Service())
			net.Flush()
			settle(fc.Service())
			fc.Service().SuspicionTick()
			settle(fc.Service())
		}
		if i == 40 {
			// The owner logs out while the custode cannot hear about it.
			if err := login.Exit(ownerLogin, ownerC); err != nil {
				t.Fatal(err)
			}
		}
		ownerOK := func() bool { _, err := fc.Read(ownerC, fileID, ownerUse); return err == nil }()
		guestOK := func() bool { _, err := fc.Read(guestC, fileID, guestUse); return err == nil }()
		// Safety: past the fail-safe budget no partitioned access works,
		// and the logged-out owner never reads again.
		// (The heal step and the reviving heartbeat both land on t=60,
		// so the partition window ends at t=59.)
		if i >= 30+missedHB*hbTicks && i < 60 && (ownerOK || guestOK) {
			t.Fatalf("t=%d: file access during partition past fail-safe budget (owner=%t guest=%t)", i, ownerOK, guestOK)
		}
		if i >= 40+missedHB*hbTicks && ownerOK {
			t.Fatalf("t=%d: logged-out owner read a file", i)
		}
		// Liveness: the guest is reading again within 3 heartbeats of
		// the heal.
		if i >= 60+3*hbTicks && !guestOK {
			t.Fatalf("t=%d: guest access not restored after heal", i)
		}
	}
}
