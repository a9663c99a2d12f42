package oasis

import (
	"errors"
	"expvar"
	"fmt"
	"sync"
	"testing"
	"time"

	"oasis/internal/cert"
	"oasis/internal/clock"
	"oasis/internal/credrec"
	"oasis/internal/event"
	"oasis/internal/ids"
	"oasis/internal/value"
)

func TestIssueDirect(t *testing.T) {
	// §4.12: a password service issues Passwd certificates based on
	// policy not expressed in RDL (a secret check).
	h := newHarness(t)
	pw, _ := New("Pw", h.clk, h.net, Options{})
	if err := pw.AddRolefile("main", `
def Passwd(u, key) u: Login.userid key: string
Passwd(u, key) <-
`); err != nil {
		t.Fatal(err)
	}
	secrets := map[string]string{"dm": "sesame"}
	authenticate := func(client ids.ClientID, user, password, key string) (*cert.RMC, error) {
		if secrets[user] != password {
			return nil, errors.New("bad password")
		}
		return pw.IssueDirect(client, "main", "Passwd",
			[]value.Value{uid(user), value.Str(key)})
	}

	c := h.client("ely")
	if _, err := authenticate(c, "dm", "wrong", "Login"); err == nil {
		t.Fatal("bad password accepted")
	}
	rmc, err := authenticate(c, "dm", "sesame", "Login")
	if err != nil {
		t.Fatal(err)
	}
	if err := pw.Validate(rmc, c); err != nil {
		t.Fatal(err)
	}
	// The directly issued certificate works as a credential at other
	// services, exactly like an RDL-issued one (§3.4.3's login flow).
	login2, _ := New("Login2", h.clk, h.net, Options{})
	if err := login2.AddRolefile("main", `
LoggedOn(u) <- Pw.Passwd(u, "Login")*
`); err != nil {
		t.Fatal(err)
	}
	logged, err := login2.Enter(EnterRequest{
		Client: c, Rolefile: "main", Role: "LoggedOn",
		Creds: []*cert.RMC{rmc},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := login2.Validate(logged, c); err != nil {
		t.Fatal(err)
	}
	// Revoking the password certificate cascades.
	if err := pw.RevokeDirect(rmc); err != nil {
		t.Fatal(err)
	}
	if err := login2.Validate(logged, c); err == nil {
		t.Fatal("derived login survived password revocation")
	}
}

func TestIssueDirectTypeChecked(t *testing.T) {
	h := newHarness(t)
	c := h.client("ely")
	if _, err := h.login.IssueDirect(c, "main", "LoggedOn",
		[]value.Value{value.Int(3), value.Int(4)}); err == nil {
		t.Fatal("wrong argument types accepted")
	}
	if _, err := h.login.IssueDirect(c, "main", "LoggedOn",
		[]value.Value{uid("dm")}); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if _, err := h.login.IssueDirect(c, "main", "Nothing", nil); err == nil {
		t.Fatal("unknown role accepted")
	}
}

func TestOrganisationalRolesInterworking(t *testing.T) {
	// §4.12's worked example: a system using organisational roles
	// (manager, project leader, [SCFY96]) interworks by a service that
	// issues an equivalent OASIS role for each holder.
	h := newHarness(t)
	org, _ := New("Org", h.clk, h.net, Options{})
	if err := org.AddRolefile("main", `
def Manager(u) u: Login.userid
def ProjectLeader(u, proj) u: Login.userid proj: string
Manager(u) <-
ProjectLeader(u, proj) <-
`); err != nil {
		t.Fatal(err)
	}
	// The adapter consults the legacy RBAC database.
	legacy := map[string][]string{"dm": {"Manager"}}
	adapt := func(client ids.ClientID, user string) ([]*cert.RMC, error) {
		var out []*cert.RMC
		for _, role := range legacy[user] {
			rmc, err := org.IssueDirect(client, "main", role, []value.Value{uid(user)})
			if err != nil {
				return nil, err
			}
			out = append(out, rmc)
		}
		return out, nil
	}

	// A payroll service defines policy over the organisational roles.
	payroll, _ := New("Payroll", h.clk, h.net, Options{})
	if err := payroll.AddRolefile("main", `
Approve(u) <- Org.Manager(u)*
`); err != nil {
		t.Fatal(err)
	}
	c := h.client("ely")
	creds, err := adapt(c, "dm")
	if err != nil || len(creds) != 1 {
		t.Fatalf("adapt: %v %v", creds, err)
	}
	approve, err := payroll.Enter(EnterRequest{
		Client: c, Rolefile: "main", Role: "Approve", Creds: creds,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := payroll.Validate(approve, c); err != nil {
		t.Fatal(err)
	}
	// Firing dm in the legacy scheme: the adapter revokes the bridge
	// certificate and the payroll right dies with it.
	if err := org.RevokeDirect(creds[0]); err != nil {
		t.Fatal(err)
	}
	if err := payroll.Validate(approve, c); err == nil {
		t.Fatal("payroll approval survived legacy revocation")
	}
}

func TestSweepTickCollectsRevokedGraphs(t *testing.T) {
	h := newHarness(t)
	h.conf.Groups().AddMember("dm", "staff")
	c := h.client("ely")
	login := h.logOn(t, c, "dm")
	chairClient := h.client("hq")
	chair, err := h.conf.Enter(EnterRequest{Client: chairClient, Rolefile: "main", Role: "Chair",
		Creds: []*cert.RMC{h.logOn(t, chairClient, "jmb")}})
	if err != nil {
		t.Fatal(err)
	}
	deleg, _, err := h.conf.Delegate(DelegateRequest{
		Client: chairClient, Rolefile: "main", Role: "Member",
		Args: []value.Value{uid("dm")}, ElectorCert: chair,
	})
	if err != nil {
		t.Fatal(err)
	}
	member, err := h.conf.EnterDelegated(EnterRequest{
		Client: c, Rolefile: "main", Role: "Member",
		Creds: []*cert.RMC{login}, Delegation: deleg,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := h.conf.Store().Live()
	// Logout revokes the whole graph; a sweep then reclaims it.
	if err := h.login.Exit(login, c); err != nil {
		t.Fatal(err)
	}
	freed := h.conf.SweepTick()
	if freed == 0 {
		t.Fatal("sweep reclaimed nothing after cascade revocation")
	}
	if h.conf.Store().Live() >= before {
		t.Fatalf("live records did not shrink: %d -> %d", before, h.conf.Store().Live())
	}
	// The swept certificate still validates as revoked (dangling ref).
	if err := h.conf.Validate(member, c); err == nil {
		t.Fatal("swept membership validated")
	}
}

func TestConcurrentEntryAndValidation(t *testing.T) {
	// The service engine is safe under concurrent entry, validation and
	// revocation (exercised under -race in CI).
	h := newHarness(t)
	h.conf.Groups().AddMember("dm", "staff")
	clients := make([]ids.ClientID, 16)
	for i := range clients {
		clients[i] = h.client(fmt.Sprintf("host%d", i)) // harness map is not goroutine-safe
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := clients[i]
			login, err := h.login.Enter(EnterRequest{
				Client: c, Rolefile: "main", Role: "LoggedOn",
				Args: []value.Value{uid("dm"), value.Object("Login.host", c.Host)},
			})
			if err != nil {
				errs <- err
				return
			}
			for j := 0; j < 10; j++ {
				if err := h.login.Validate(login, c); err != nil {
					errs <- err
					return
				}
			}
			if err := h.login.Exit(login, c); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestStartDuties(t *testing.T) {
	h := newHarness(t)
	sink := make(chan struct{}, 16)
	if _, err := h.login.broker.OpenSession(sinkFunc(func() { sink <- struct{}{} }), nil); err != nil {
		t.Fatal(err)
	}
	stop := h.login.StartDuties()
	defer stop() // must halt and join without deadlock
	// The loop arms its timer asynchronously; keep advancing the virtual
	// clock until the heartbeat lands.
	deadline := time.After(5 * time.Second)
	for {
		h.clk.Advance(6 * time.Second) // default period 5s
		select {
		case <-sink:
			return
		case <-deadline:
			t.Fatal("no heartbeat after period elapsed")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// heldSweep is a store whose every Sweep reports that it started and
// then waits for the test to let it go, until done closes: a duty tick
// the test holds.
type heldSweep struct {
	credrec.Recorder
	entered, release, done chan struct{}
}

func (h *heldSweep) Sweep() int {
	for _, ch := range []chan struct{}{h.entered, h.release} {
		select {
		case ch <- struct{}{}:
		case <-h.done:
		}
	}
	return h.Recorder.Sweep()
}

// TestDutyVarTimesEachRun: "duty" holds the duty loop's period and how
// long its last and longest runs took on the service clock. Each tick is
// held in its sweep while the test advances the virtual clock by an
// hour, by nothing, then by two hours. The loop arms its timer
// asynchronously, so a tick may also span one of the five-second steps
// that start it: each reading is bounded below, and well apart.
func TestDutyVarTimesEachRun(t *testing.T) {
	clk := clock.NewVirtual(time.Date(1996, 3, 1, 9, 0, 0, 0, time.UTC))
	store := &heldSweep{Recorder: credrec.NewStore(), entered: make(chan struct{}), release: make(chan struct{}), done: make(chan struct{})}
	svc, err := New("Login", clk, nil, Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	duty := func() map[string]float64 { return svc.Vars().Get("duty").(expvar.Func).Value().(map[string]float64) }
	if d := duty(); d["period_s"] != 5 || d["last_s"] != 0 || d["longest_s"] != 0 {
		t.Fatalf("duty before any run: %v", d)
	}
	stop := svc.StartDuties()
	defer stop()
	defer close(store.done)
	tick := func(hold time.Duration, done func(last float64) bool) map[string]float64 {
		t.Helper()
		deadline := time.After(5 * time.Second)
		for entered := false; !entered; {
			clk.Advance(5 * time.Second)
			select {
			case <-store.entered:
				entered = true
			case <-deadline:
				t.Fatal("no duty tick reached the sweep")
			case <-time.After(5 * time.Millisecond):
			}
		}
		clk.Advance(hold)
		<-store.release
		for {
			if d := duty(); done(d["last_s"]) {
				return d
			}
			select {
			case <-deadline:
				t.Fatalf("duty after a tick held %v: %v", hold, duty())
			case <-time.After(time.Millisecond):
			}
		}
	}
	d := tick(time.Hour, func(last float64) bool { return last >= 3600 })
	if d["longest_s"] != d["last_s"] {
		t.Fatalf("after one run held an hour: %v, want longest = last", d)
	}
	first := d["last_s"]
	d = tick(0, func(last float64) bool { return last < 3600 })
	if d["longest_s"] != first {
		t.Fatalf("after a run held for no time: %v, want longest %v", d, first)
	}
	d = tick(2*time.Hour, func(last float64) bool { return last >= 7200 })
	if d["longest_s"] != d["last_s"] {
		t.Fatalf("after a run held two hours: %v, want longest = last", d)
	}
}

// The storm's policies (bench/oasisload/workloads.go): the |> clause
// gives every Session a record of its own, its AND over the login's. Guest is never asked for
// here, but §3.2.2 walks every rule on each entry of R, so its group
// test mints a (u, staff) record (§4.7 rule 3) that nothing holds.
const (
	stormLoginRolefile = `def LoggedOn(u, h) u: Login.userid h: Login.host
def Session(u, n) u: Login.userid n: integer
Admin <-
LoggedOn(u, h) <-
Session(u, n) <- LoggedOn(u, h)* |> Admin
`
	stormConfRolefile = `def R(u, n) u: Login.userid n: integer
R(u, n) <- Login.Session(u, n)*
Guest(u) <- Login.Session(u, n)* : (u not in staff)*
`
)

// TestDutiesReclaimRevokedGraphs: the duty loop sweeps (§4.8). After
// 200 cycles of login → Session → cross-service R → logout, one period
// of StartDuties returns both stores to exactly what they held before:
// a §4.11 instance keeps its row, not a record, once its certificate
// dies. Conf holds no surrogate and its group table no entry whose
// record is gone, and a swept certificate still refuses.
func TestDutiesReclaimRevokedGraphs(t *testing.T) {
	h := newHarness(t)
	if err := h.login.AddRolefile("storm", stormLoginRolefile); err != nil {
		t.Fatal(err)
	}
	if err := h.conf.AddRolefile("storm", stormConfRolefile); err != nil {
		t.Fatal(err)
	}
	loginLive, confLive := h.login.Store().Live(), h.conf.Store().Live()
	groups := h.conf.groupEntries()
	stopLogin, stopConf := h.login.StartDuties(), h.conf.StartDuties()
	stop := sync.OnceFunc(func() { stopLogin(); stopConf() })
	defer stop()

	const cycles = 200
	var session, r *cert.RMC
	for i := 0; i < cycles; i++ {
		c := h.client("ely")
		user := fmt.Sprintf("u%03d", i)
		login, err := h.login.Enter(EnterRequest{Client: c, Rolefile: "storm", Role: "LoggedOn",
			Args: []value.Value{uid(user), value.Object("Login.host", c.Host)}})
		if err != nil {
			t.Fatal(err)
		}
		session, err = h.login.Enter(EnterRequest{Client: c, Rolefile: "storm", Role: "Session",
			Args: []value.Value{uid(user), value.Int(int64(i))}, Creds: []*cert.RMC{login}})
		if err != nil {
			t.Fatal(err)
		}
		r, err = h.conf.Enter(EnterRequest{Client: c, Rolefile: "storm", Role: "R",
			Args: []value.Value{uid(user), value.Int(int64(i))}, Creds: []*cert.RMC{session}})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.login.Exit(login, c); err != nil {
			t.Fatal(err)
		}
		wantRevoked(t, h.conf.Validate(r, c), "R after logout")
	}
	if n := h.conf.groupEntries(); n != groups+cycles {
		t.Fatalf("group table holds %d entries after the cycles, want %d", n, groups+cycles)
	}
	st, err := h.login.rolefileFor("storm")
	if err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	instances := len(st.instances)
	st.mu.Unlock()
	if instances != cycles {
		t.Fatalf("%d revocable instances, want %d", instances, cycles)
	}

	// One period. The loop arms its timer asynchronously, so the clock is
	// advanced again only if nothing was swept in a while.
	reclaimed := func() bool {
		return h.login.Store().Live() == loginLive && h.conf.Store().Live() == confLive
	}
	deadline := time.Now().Add(5 * time.Second)
	for !reclaimed() {
		if time.Now().After(deadline) {
			t.Fatalf("live records one period later: Login %d (want %d), Conf %d (want %d)",
				h.login.Store().Live(), loginLive, h.conf.Store().Live(), confLive)
		}
		h.clk.Advance(5 * time.Second) // default period
		for wait := time.Now().Add(50 * time.Millisecond); !reclaimed() && time.Now().Before(wait); {
			time.Sleep(time.Millisecond)
		}
	}
	stop() // joins both loops: the tables below are read quiescent

	if n := h.conf.surrogateRows(); n != 0 {
		t.Fatalf("Conf holds %d surrogate rows", n)
	}
	if n := h.conf.groupEntries(); n != groups {
		t.Fatalf("group table holds %d entries after the sweep, want %d", n, groups)
	}
	if _, _, err := h.conf.Store().Resolve(r.CRR); !errors.Is(err, credrec.ErrDangling) {
		t.Fatalf("R's record was not swept: %v", err)
	}
	wantRevoked(t, h.conf.Validate(r, r.Client), "swept R")
	wantRevoked(t, h.login.Validate(session, session.Client), "swept Session")
}

// sinkFunc adapts a thunk to an event sink counting heartbeats.
func sinkFunc(f func()) event.Sink {
	return event.SinkFunc(func(n event.Notification) {
		if n.Heartbeat {
			f()
		}
	})
}

// TestRevocableVarCountsInstances: Vars' "revocable" counts the §4.11
// role instances over every rolefile. N storm-shaped rounds — a login,
// K sessions each under its |> Admin clause, the logout, the duty
// loop's sweep — leave N×K instances: the sweep frees every record of
// the rounds, each session's certificate record with it, and nothing
// frees the instances, whose rows RevokeByRole still finds (ROADMAP
// item 11: shrink, do not release). One revocation by role moves one
// instance to "revoked_forever".
func TestRevocableVarCountsInstances(t *testing.T) {
	h := newHarness(t)
	if err := h.login.AddRolefile("storm", stormLoginRolefile); err != nil {
		t.Fatal(err)
	}
	revocable := func() map[string]int {
		return h.login.Vars().Get("revocable").(expvar.Func).Value().(map[string]int)
	}
	if got := revocable(); got["instances"] != 0 || got["revoked_forever"] != 0 {
		t.Fatalf("revocable before any entry: %v", got)
	}
	const rounds, sessions = 6, 4
	admin := h.client("ely")
	adminCert, err := h.login.Enter(EnterRequest{Client: admin, Rolefile: "storm", Role: "Admin"})
	if err != nil {
		t.Fatal(err)
	}
	live := h.login.Store().Live()
	for i := range rounds {
		c := h.client("ely")
		user := fmt.Sprintf("u%03d", i)
		login, err := h.login.Enter(EnterRequest{Client: c, Rolefile: "storm", Role: "LoggedOn",
			Args: []value.Value{uid(user), value.Object("Login.host", c.Host)}})
		if err != nil {
			t.Fatal(err)
		}
		for n := range sessions {
			if _, err := h.login.Enter(EnterRequest{Client: c, Rolefile: "storm", Role: "Session",
				Args: []value.Value{uid(user), value.Int(int64(n))}, Creds: []*cert.RMC{login}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.login.Exit(login, c); err != nil {
			t.Fatal(err)
		}
		h.login.SweepTick()
	}
	if got := revocable(); got["instances"] != rounds*sessions || got["revoked_forever"] != 0 {
		t.Fatalf("revocable after %d rounds of %d sessions and the sweep: %v, want %d instances", rounds, sessions, got, rounds*sessions)
	}
	if got := h.login.Store().Live(); got != live {
		t.Fatalf("%d live records after the rounds and the sweep, want %d as before them", got, live)
	}
	if err := h.login.RevokeByRole(adminCert, admin, "storm", "Session", []value.Value{uid("u000"), value.Int(0)}); err != nil {
		t.Fatal(err)
	}
	if got := revocable(); got["instances"] != rounds*sessions-1 || got["revoked_forever"] != 1 {
		t.Fatalf("revocable after one revocation by role: %v, want %d instances, 1 revoked forever", got, rounds*sessions-1)
	}
}

// stormLogin is a standalone Login serving the storm's rolefile on the
// given store, with a client maker over its clock.
func stormLogin(t testing.TB, store credrec.Recorder) (*Service, func(host string) ids.ClientID) {
	t.Helper()
	clk := clock.NewVirtual(time.Date(1996, 3, 1, 9, 0, 0, 0, time.UTC))
	svc, err := New("Login", clk, nil, Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AddRolefile("storm", stormLoginRolefile); err != nil {
		t.Fatal(err)
	}
	hosts := make(map[string]*ids.HostAuthority)
	return svc, func(host string) ids.ClientID {
		ha, ok := hosts[host]
		if !ok {
			ha = ids.NewHostAuthority(host, clk.Now())
			hosts[host] = ha
		}
		return ha.NewDomain()
	}
}

func stormLogOn(t testing.TB, svc *Service, c ids.ClientID, user string) *cert.RMC {
	t.Helper()
	login, err := svc.Enter(EnterRequest{Client: c, Rolefile: "storm", Role: "LoggedOn",
		Args: []value.Value{uid(user), value.Object("Login.host", c.Host)}})
	if err != nil {
		t.Fatal(err)
	}
	return login
}

func stormSession(t testing.TB, svc *Service, c ids.ClientID, login *cert.RMC, user string, n int) *cert.RMC {
	t.Helper()
	session, err := svc.Enter(EnterRequest{Client: c, Rolefile: "storm", Role: "Session",
		Args: []value.Value{uid(user), value.Int(int64(n))}, Creds: []*cert.RMC{login}})
	if err != nil {
		t.Fatal(err)
	}
	return session
}

// TestRevokeByRoleRacesReentry: a revocation by role (§4.11) is final
// for every certificate of the instance issued before it returns. Each
// round, goroutines enter one Session(u, n) over and over while
// RevokeByRole fires it; once it has returned, every certificate the
// entries got must fail validation, and every later entry is refused.
// A revocation that invalidated the instance's record before marking it
// revoked let an entry in between mint a record of its own, whose
// certificate validated for good.
func TestRevokeByRoleRacesReentry(t *testing.T) {
	svc, client := stormLogin(t, credrec.NewStore())
	admin := client("adm")
	adminCert, err := svc.Enter(EnterRequest{Client: admin, Rolefile: "storm", Role: "Admin"})
	if err != nil {
		t.Fatal(err)
	}
	c := client("ely")
	login := stormLogOn(t, svc, c, "dm")
	const rounds, entrants = 200, 4
	for n := range rounds {
		stormSession(t, svc, c, login, "dm", n)
		var (
			mu      sync.Mutex
			issued  []*cert.RMC
			entered sync.WaitGroup
			done    sync.WaitGroup
			stop    = make(chan struct{})
		)
		entered.Add(entrants)
		done.Add(entrants)
		for range entrants {
			go func() {
				defer done.Done()
				for first := true; ; first = false {
					session, err := svc.Enter(EnterRequest{Client: c, Rolefile: "storm", Role: "Session",
						Args: []value.Value{uid("dm"), value.Int(int64(n))}, Creds: []*cert.RMC{login}})
					if err == nil {
						mu.Lock()
						issued = append(issued, session)
						mu.Unlock()
					}
					if first {
						entered.Done()
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
		}
		entered.Wait()
		err := svc.RevokeByRole(adminCert, admin, "storm", "Session", []value.Value{uid("dm"), value.Int(int64(n))})
		close(stop)
		done.Wait()
		if err != nil {
			t.Fatalf("round %d: %v", n, err)
		}
		for i, session := range issued {
			if err := svc.Validate(session, c); err == nil {
				t.Fatalf("round %d: certificate %d of %d (%v) validates after the revocation by role", n, i+1, len(issued), session.CRR)
			}
		}
		if _, err := svc.Enter(EnterRequest{Client: c, Rolefile: "storm", Role: "Session",
			Args: []value.Value{uid("dm"), value.Int(int64(n))}, Creds: []*cert.RMC{login}}); err == nil {
			t.Fatalf("round %d: entry after the revocation by role granted", n)
		}
	}
}
