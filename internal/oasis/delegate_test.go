package oasis

import (
	"errors"
	"testing"
	"time"

	"oasis/internal/bus"
	"oasis/internal/cert"
	"oasis/internal/credrec"
	"oasis/internal/event"
	"oasis/internal/ids"
	"oasis/internal/value"
)

// confSetup enters jmb as Chair and returns the pieces needed for
// delegation tests over the figure 3.1 rolefile.
func confSetup(t *testing.T) (*harness, ids.ClientID, *cert.RMC) {
	t.Helper()
	h := newHarness(t)
	h.conf.Groups().AddMember("dm", "staff")
	chairClient := h.client("ely")
	chairLogin := h.logOn(t, chairClient, "jmb")
	chair, err := h.conf.Enter(EnterRequest{
		Client: chairClient, Rolefile: "main", Role: "Chair",
		Creds: []*cert.RMC{chairLogin},
	})
	if err != nil {
		t.Fatal(err)
	}
	return h, chairClient, chair
}

// electMember delegates Member(u) from the chair to a fresh client.
func electMember(t *testing.T, h *harness, chairClient ids.ClientID, chair *cert.RMC, user string) (ids.ClientID, *cert.RMC, *cert.Revocation) {
	t.Helper()
	deleg, rev, err := h.conf.Delegate(DelegateRequest{
		Client: chairClient, Rolefile: "main", Role: "Member",
		Args:        []value.Value{uid(user)},
		ElectorCert: chair,
	})
	if err != nil {
		t.Fatal(err)
	}
	cand := h.client("cam")
	candLogin := h.logOn(t, cand, user)
	member, err := h.conf.EnterDelegated(EnterRequest{
		Client: cand, Rolefile: "main", Role: "Member",
		Creds:      []*cert.RMC{candLogin},
		Delegation: deleg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cand, member, rev
}

func TestElectionGrantsMembership(t *testing.T) {
	// Figure 4.6 end to end: Member(u) <- LoggedOn(u,h)* <|* Chair :
	// (u in staff)*.
	h, chairClient, chair := confSetup(t)
	cand, member, rev := electMember(t, h, chairClient, chair, "dm")
	if rev == nil {
		t.Fatal("starred election returned no revocation certificate")
	}
	if err := h.conf.Validate(member, cand); err != nil {
		t.Fatal(err)
	}
	if !member.Args[0].Equal(uid("dm")) {
		t.Fatalf("member args = %v", member.Args)
	}
}

func TestElectionDeniedWithoutStaff(t *testing.T) {
	h, chairClient, chair := confSetup(t)
	deleg, _, err := h.conf.Delegate(DelegateRequest{
		Client: chairClient, Rolefile: "main", Role: "Member",
		Args:        []value.Value{uid("outsider")},
		ElectorCert: chair,
	})
	if err != nil {
		t.Fatal(err)
	}
	cand := h.client("cam")
	candLogin := h.logOn(t, cand, "outsider")
	if _, err := h.conf.EnterDelegated(EnterRequest{
		Client: cand, Rolefile: "main", Role: "Member",
		Creds: []*cert.RMC{candLogin}, Delegation: deleg,
	}); err == nil {
		t.Fatal("non-staff candidate elected")
	}
}

func TestDelegationRequiresElectorRole(t *testing.T) {
	h, _, _ := confSetup(t)
	// A mere logged-on user cannot delegate Member.
	c := h.client("ox")
	login := h.logOn(t, c, "dm")
	if _, _, err := h.conf.Delegate(DelegateRequest{
		Client: c, Rolefile: "main", Role: "Member",
		Args:        []value.Value{uid("dm")},
		ElectorCert: login, // not even a Conf certificate
	}); err == nil {
		t.Fatal("delegation allowed without elector role")
	}
}

func TestBothPartiesMustAgree(t *testing.T) {
	// §4.4: the candidate accepts by using the certificate; the wrong
	// candidate (not holding the required LoggedOn) cannot.
	h, chairClient, chair := confSetup(t)
	h.conf.Groups().AddMember("mallory", "staff")
	deleg, _, err := h.conf.Delegate(DelegateRequest{
		Client: chairClient, Rolefile: "main", Role: "Member",
		Args:        []value.Value{uid("dm")},
		ElectorCert: chair,
	})
	if err != nil {
		t.Fatal(err)
	}
	thief := h.client("bad")
	thiefLogin := h.logOn(t, thief, "mallory")
	if _, err := h.conf.EnterDelegated(EnterRequest{
		Client: thief, Rolefile: "main", Role: "Member",
		Creds: []*cert.RMC{thiefLogin}, Delegation: deleg,
	}); err == nil {
		t.Fatal("wrong candidate used the delegation (rule binds u to dm)")
	}
}

func TestExplicitRevocation(t *testing.T) {
	// §4.4/figure 4.5: the delegator revokes; the member's certificate
	// dies; a sibling delegation is unaffected.
	h, chairClient, chair := confSetup(t)
	h.conf.Groups().AddMember("sib", "staff")
	cand, member, rev := electMember(t, h, chairClient, chair, "dm")
	sibClient, sibMember, _ := electMember(t, h, chairClient, chair, "sib")

	if err := h.conf.Revoke(rev); err != nil {
		t.Fatal(err)
	}
	if err := h.conf.Validate(member, cand); err == nil {
		t.Fatal("membership survived revocation")
	}
	if err := h.conf.Validate(sibMember, sibClient); err != nil {
		t.Fatalf("sibling delegation caught by selective revocation: %v", err)
	}
}

func TestRevocationRequiresLiveDelegator(t *testing.T) {
	// Figure 4.3: the revocation certificate's first CRR ensures the
	// delegator is still a member of the delegating role.
	h, chairClient, chair := confSetup(t)
	_, _, rev := electMember(t, h, chairClient, chair, "dm")
	if err := h.conf.Exit(chair, chairClient); err != nil {
		t.Fatal(err)
	}
	err := h.conf.Revoke(rev)
	var verr *ValidationError
	if !errors.As(err, &verr) || verr.Class != Revoked {
		t.Fatalf("revocation by ex-chair: %v", err)
	}
}

func TestElectorExitDoesNotCascadeWhenElectorUnstarred(t *testing.T) {
	// Figure 3.1 stars the election (<|*) but not the elector's role
	// (Chair carries no *): once elected, members survive the chair's
	// exit; only explicit revocation removes them (§3.2.3's four kinds
	// of entry condition are independently selectable).
	h, chairClient, chair := confSetup(t)
	cand, member, _ := electMember(t, h, chairClient, chair, "dm")
	if err := h.conf.Exit(chair, chairClient); err != nil {
		t.Fatal(err)
	}
	if err := h.conf.Validate(member, cand); err != nil {
		t.Fatalf("membership died on elector exit despite unstarred elector role: %v", err)
	}
}

func TestElectorExitCascadesThroughStarredElectorRole(t *testing.T) {
	// With the elector's role starred (<|* Chair*), continued chair
	// membership is a membership rule: chair exit revokes members.
	h := newHarness(t)
	svc, _ := New("StrictMeet", h.clk, h.net, Options{})
	src := `
Chair     <- Login.LoggedOn("jmb", h)
Member(u) <- Login.LoggedOn(u, h)* <|* Chair*
`
	if err := svc.AddRolefile("main", src); err != nil {
		t.Fatal(err)
	}
	chairClient := h.client("ely")
	chair, err := svc.Enter(EnterRequest{Client: chairClient, Rolefile: "main", Role: "Chair",
		Creds: []*cert.RMC{h.logOn(t, chairClient, "jmb")}})
	if err != nil {
		t.Fatal(err)
	}
	deleg, _, err := svc.Delegate(DelegateRequest{
		Client: chairClient, Rolefile: "main", Role: "Member",
		Args: []value.Value{uid("dm")}, ElectorCert: chair,
	})
	if err != nil {
		t.Fatal(err)
	}
	cand := h.client("cam")
	member, err := svc.EnterDelegated(EnterRequest{
		Client: cand, Rolefile: "main", Role: "Member",
		Creds: []*cert.RMC{h.logOn(t, cand, "dm")}, Delegation: deleg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Exit(chair, chairClient); err != nil {
		t.Fatal(err)
	}
	if err := svc.Validate(member, cand); err == nil {
		t.Fatal("membership survived elector exit despite starred elector role")
	}
}

func TestDelegationExpiry(t *testing.T) {
	// §4.4: a time limit triggers automatic revocation, preventing
	// un-revokable delegations from lost revocation certificates.
	h, chairClient, chair := confSetup(t)
	deleg, _, err := h.conf.Delegate(DelegateRequest{
		Client: chairClient, Rolefile: "main", Role: "Member",
		Args:        []value.Value{uid("dm")},
		ElectorCert: chair,
		TTL:         time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.clk.Advance(2 * time.Minute)
	if n := h.conf.ExpireTick(); n != 1 {
		t.Fatalf("ExpireTick = %d", n)
	}
	cand := h.client("cam")
	candLogin := h.logOn(t, cand, "dm")
	if _, err := h.conf.EnterDelegated(EnterRequest{
		Client: cand, Rolefile: "main", Role: "Member",
		Creds: []*cert.RMC{candLogin}, Delegation: deleg,
	}); err == nil {
		t.Fatal("expired delegation accepted")
	}
}

func TestMemberSurvivesAfterEntryEvenIfDelegationExpires(t *testing.T) {
	// Expiry of the *delegation certificate* bounds the offer window;
	// invalidating the delegation record after entry kills memberships
	// derived from it (the <|* makes it a membership rule). Here we
	// check the offer window: entry before expiry succeeds, after fails.
	h, chairClient, chair := confSetup(t)
	deleg, _, err := h.conf.Delegate(DelegateRequest{
		Client: chairClient, Rolefile: "main", Role: "Member",
		Args:        []value.Value{uid("dm")},
		ElectorCert: chair,
		TTL:         time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	cand := h.client("cam")
	candLogin := h.logOn(t, cand, "dm")
	member, err := h.conf.EnterDelegated(EnterRequest{
		Client: cand, Rolefile: "main", Role: "Member",
		Creds: []*cert.RMC{candLogin}, Delegation: deleg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.conf.Validate(member, cand); err != nil {
		t.Fatal(err)
	}
}

func TestRevokeOnExitOption(t *testing.T) {
	// §4.4: the delegator may specify revocation when their role exits.
	// (With figure 3.1's rolefile the elector role is starred anyway;
	// this test uses an unstarred variant to isolate the option.)
	h := newHarness(t)
	svc, _ := New("Meet", h.clk, h.net, Options{})
	src := `
Chair     <- Login.LoggedOn("jmb", h)
Member(u) <- Login.LoggedOn(u, h) <|* Chair
`
	if err := svc.AddRolefile("main", src); err != nil {
		t.Fatal(err)
	}
	chairClient := h.client("ely")
	chairLogin := h.logOn(t, chairClient, "jmb")
	chair, err := svc.Enter(EnterRequest{Client: chairClient, Rolefile: "main", Role: "Chair", Creds: []*cert.RMC{chairLogin}})
	if err != nil {
		t.Fatal(err)
	}

	issue := func(revokeOnExit bool, user string) (*cert.RMC, ids.ClientID) {
		deleg, _, err := svc.Delegate(DelegateRequest{
			Client: chairClient, Rolefile: "main", Role: "Member",
			Args:         []value.Value{uid(user)},
			ElectorCert:  chair,
			RevokeOnExit: revokeOnExit,
		})
		if err != nil {
			t.Fatal(err)
		}
		cand := h.client("cam")
		candLogin := h.logOn(t, cand, user)
		m, err := svc.EnterDelegated(EnterRequest{
			Client: cand, Rolefile: "main", Role: "Member",
			Creds: []*cert.RMC{candLogin}, Delegation: deleg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m, cand
	}
	mAuto, cAuto := issue(true, "auto")
	mKeep, cKeep := issue(false, "keep")

	if err := svc.Exit(chair, chairClient); err != nil {
		t.Fatal(err)
	}
	if err := svc.Validate(mAuto, cAuto); err == nil {
		t.Fatal("revoke-on-exit membership survived elector exit")
	}
	if err := svc.Validate(mKeep, cKeep); err != nil {
		t.Fatalf("plain membership died on elector exit: %v", err)
	}
}

func TestRoleBasedRevocation(t *testing.T) {
	// §3.3.2/§4.11 open meeting: any staffer may join; the Chair (who
	// was not the elector) may eject by naming the role parameters, and
	// re-entry is refused until reinstated (hire / fire / re-hire).
	h := newHarness(t)
	svc, _ := New("Open", h.clk, h.net, Options{})
	src := `
Chair        <- Login.LoggedOn("jmb", h)
Candidate(u) <- Login.LoggedOn(u, h)* : u in staff
Member(u)    <- Candidate(u)* |>* Chair
`
	if err := svc.AddRolefile("main", src); err != nil {
		t.Fatal(err)
	}
	svc.Groups().AddMember("dm", "staff")
	chairClient := h.client("ely")
	chair, err := svc.Enter(EnterRequest{Client: chairClient, Rolefile: "main", Role: "Chair",
		Creds: []*cert.RMC{h.logOn(t, chairClient, "jmb")}})
	if err != nil {
		t.Fatal(err)
	}

	member := h.client("cam")
	memberLogin := h.logOn(t, member, "dm")
	m, err := svc.Enter(EnterRequest{Client: member, Rolefile: "main", Role: "Member", Creds: []*cert.RMC{memberLogin}})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Validate(m, member); err != nil {
		t.Fatal(err)
	}

	// The chair ejects Member(dm) — knowing only the parameters.
	if err := svc.RevokeByRole(chair, chairClient, "main", "Member", []value.Value{uid("dm")}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Validate(m, member); err == nil {
		t.Fatal("membership survived role-based revocation")
	}
	// Re-entry is refused.
	if _, err := svc.Enter(EnterRequest{Client: member, Rolefile: "main", Role: "Member", Creds: []*cert.RMC{memberLogin}}); err == nil {
		t.Fatal("revoked instance re-entered")
	}
	// Reinstate, then re-entry succeeds.
	if err := svc.Reinstate(chair, chairClient, "main", "Member", []value.Value{uid("dm")}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Enter(EnterRequest{Client: member, Rolefile: "main", Role: "Member", Creds: []*cert.RMC{memberLogin}}); err != nil {
		t.Fatalf("reinstated member denied: %v", err)
	}
}

func TestRoleBasedRevocationRequiresRevokerRole(t *testing.T) {
	h := newHarness(t)
	svc, _ := New("Open2", h.clk, h.net, Options{})
	src := `
Chair        <- Login.LoggedOn("jmb", h)
Member(u)    <- Login.LoggedOn(u, h)* |>* Chair : u in staff
`
	if err := svc.AddRolefile("main", src); err != nil {
		t.Fatal(err)
	}
	svc.Groups().AddMember("dm", "staff")
	svc.Groups().AddMember("ed", "staff")
	member := h.client("cam")
	m, err := svc.Enter(EnterRequest{Client: member, Rolefile: "main", Role: "Member",
		Creds: []*cert.RMC{h.logOn(t, member, "dm")}})
	if err != nil {
		t.Fatal(err)
	}
	// Another member (not Chair) cannot eject.
	other := h.client("ox")
	om, err := svc.Enter(EnterRequest{Client: other, Rolefile: "main", Role: "Member",
		Creds: []*cert.RMC{h.logOn(t, other, "ed")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.RevokeByRole(om, other, "main", "Member", []value.Value{uid("dm")}); err == nil {
		t.Fatal("non-chair performed role-based revocation")
	}
	if err := svc.Validate(m, member); err != nil {
		t.Fatal("membership damaged by failed revocation")
	}
}

func TestGolfClubQuorum(t *testing.T) {
	// §3.4.5: joining requires recommendations from two *different*
	// members. Modelled with an intermediate role carrying the first
	// recommender's identity and a constraint m1 != m2.
	h := newHarness(t)
	svc, _ := New("Golf", h.clk, h.net, Options{})
	src := `
def Member(p) p: Login.userid
Member(p)  <- Login.LoggedOn(p, h) : p in founders
Rec(p, m1) <- Login.LoggedOn(p, h)* <| Member(m1)
Member(p)  <- Rec(p, m1)* <| Member(m2) : m1 != m2
`
	if err := svc.AddRolefile("main", src); err != nil {
		t.Fatal(err)
	}
	svc.Groups().AddMember("arnold", "founders")
	svc.Groups().AddMember("gary", "founders")

	join := func(user string) (ids.ClientID, *cert.RMC) {
		c := h.client(user + "-host")
		login := h.logOn(t, c, user)
		m, err := svc.Enter(EnterRequest{Client: c, Rolefile: "main", Role: "Member",
			Args: []value.Value{uid(user)}, Creds: []*cert.RMC{login}})
		if err != nil {
			t.Fatalf("bootstrap member %s: %v", user, err)
		}
		return c, m
	}
	arnoldC, arnold := join("arnold")
	garyC, gary := join("gary")

	// jack obtains a recommendation from arnold.
	jackC := h.client("jack-host")
	jackLogin := h.logOn(t, jackC, "jack")
	d1, _, err := svc.Delegate(DelegateRequest{
		Client: arnoldC, Rolefile: "main", Role: "Rec",
		Args:        []value.Value{uid("jack"), uid("arnold")},
		ElectorCert: arnold,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec1, err := svc.EnterDelegated(EnterRequest{
		Client: jackC, Rolefile: "main", Role: "Rec",
		Creds: []*cert.RMC{jackLogin}, Delegation: d1,
	})
	if err != nil {
		t.Fatal(err)
	}

	// A second recommendation from the *same* member is refused.
	dSame, _, err := svc.Delegate(DelegateRequest{
		Client: arnoldC, Rolefile: "main", Role: "Member",
		Args:        []value.Value{uid("jack")},
		ElectorCert: arnold,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.EnterDelegated(EnterRequest{
		Client: jackC, Rolefile: "main", Role: "Member",
		Creds: []*cert.RMC{jackLogin, rec1}, Delegation: dSame,
	}); err == nil {
		t.Fatal("same member recommended twice (constraint m1 != m2 ignored)")
	}

	// Seconded by gary — a different member — jack joins.
	d2, _, err := svc.Delegate(DelegateRequest{
		Client: garyC, Rolefile: "main", Role: "Member",
		Args:        []value.Value{uid("jack")},
		ElectorCert: gary,
	})
	if err != nil {
		t.Fatal(err)
	}
	member, err := svc.EnterDelegated(EnterRequest{
		Client: jackC, Rolefile: "main", Role: "Member",
		Creds: []*cert.RMC{jackLogin, rec1}, Delegation: d2,
	})
	if err != nil {
		t.Fatalf("quorum election failed: %v", err)
	}
	if err := svc.Validate(member, jackC); err != nil {
		t.Fatal(err)
	}
	// The starred Rec candidate ties jack's membership to his login: if
	// jack logs off, the recommendation chain collapses.
	if err := h.login.Exit(jackLogin, jackC); err != nil {
		t.Fatal(err)
	}
	if err := svc.Validate(member, jackC); err == nil {
		t.Fatal("membership survived login exit despite starred chain")
	}
}

func TestExpireTickForgetsDeadDelegations(t *testing.T) {
	// The delegation bookkeeping is bounded by the live delegations: one
	// whose record died by cascade — here revoke-on-exit (§4.4) — is
	// forgotten at the next tick, and presenting it afterwards is still
	// refused as revoked, which it is, not as unknown.
	h := newHarness(t)
	svc, _ := New("Meet", h.clk, h.net, Options{})
	src := `
Chair     <- Login.LoggedOn("jmb", h)
Member(u) <- Login.LoggedOn(u, h) <|* Chair
`
	if err := svc.AddRolefile("main", src); err != nil {
		t.Fatal(err)
	}
	chairClient := h.client("ely")
	chairLogin := h.logOn(t, chairClient, "jmb")
	// delegateThenExit has a fresh chair delegate and leave.
	delegateThenExit := func() *cert.Delegation {
		chair, err := svc.Enter(EnterRequest{Client: chairClient, Rolefile: "main", Role: "Chair", Creds: []*cert.RMC{chairLogin}})
		if err != nil {
			t.Fatal(err)
		}
		deleg, _, err := svc.Delegate(DelegateRequest{
			Client: chairClient, Rolefile: "main", Role: "Member",
			Args: []value.Value{uid("dm")}, ElectorCert: chair, RevokeOnExit: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Exit(chair, chairClient); err != nil {
			t.Fatal(err)
		}
		return deleg
	}
	outstanding := func() int {
		svc.delegMu.Lock()
		defer svc.delegMu.Unlock()
		return len(svc.delegations)
	}

	deleg := delegateThenExit()
	if n := svc.ExpireTick(); n != 0 {
		t.Fatalf("ExpireTick = %d, want 0: nothing reached its time limit", n)
	}
	if n := outstanding(); n != 0 {
		t.Fatalf("%d delegations outstanding after the elector left, want 0", n)
	}
	cand := h.client("cam")
	_, err := svc.EnterDelegated(EnterRequest{
		Client: cand, Rolefile: "main", Role: "Member",
		Creds: []*cert.RMC{h.logOn(t, cand, "dm")}, Delegation: deleg,
	})
	var verr *ValidationError
	if !errors.As(err, &verr) || verr.Class != Revoked || verr.Reason != "delegation revoked" {
		t.Fatalf("dead delegation after tick: %v, want revoked (delegation revoked)", err)
	}

	for i := 0; i < 10000; i++ {
		delegateThenExit()
		svc.ExpireTick()
	}
	if n := outstanding(); n != 0 {
		t.Fatalf("%d delegations outstanding after 10000 delegate/exit/tick rounds, want 0", n)
	}
}

// invalidationLog is a store that logs the records Invalidate is asked
// to change, in call order.
type invalidationLog struct {
	*credrec.Store
	refs []credrec.Ref
}

func (l *invalidationLog) Invalidate(ref credrec.Ref) error {
	l.refs = append(l.refs, ref)
	return l.Store.Invalidate(ref)
}

func TestExpiriesReachTheWatcherInOrder(t *testing.T) {
	// ExpireTick is a revocation entry point like Exit or Revoke: each
	// delegation one tick expires reaches a watcher of the membership
	// derived from it, in the order the tick invalidated them, on one
	// session with no gap in its sequence.
	const n = 3
	store := &invalidationLog{Store: credrec.NewStore()}
	h := newHarnessWith(t, Options{}, Options{DelegationTTL: time.Minute, Store: store})
	chairClient := h.client("ely")
	chair, err := h.conf.Enter(EnterRequest{
		Client: chairClient, Rolefile: "main", Role: "Chair",
		Creds: []*cert.RMC{h.logOn(t, chairClient, "jmb")},
	})
	if err != nil {
		t.Fatal(err)
	}
	var heard []event.Notification
	relayTo(t, h.net, "Watcher", bus.NewNetwork(h.clk), func(n event.Notification) { heard = append(heard, n) })
	member := make(map[credrec.Ref]string) // delegation record -> watched membership
	for _, user := range [n]string{"dm", "kgm", "rjh"} {
		h.conf.Groups().AddMember(user, "staff")
		cand, rmc, rev := electMember(t, h, chairClient, chair, user)
		if _, err := h.net.Call("Watcher", "Conf", "validate", ValidateArg{Cert: rmc, Client: cand, Watch: true}); err != nil {
			t.Fatal(err)
		}
		member[rev.TargetCRR] = refString(rmc.CRR)
	}
	store.refs, heard = nil, nil
	h.clk.Advance(2 * time.Minute)
	if got := h.conf.ExpireTick(); got != n {
		t.Fatalf("ExpireTick = %d, want %d", got, n)
	}
	if len(store.refs) != n || len(heard) != n {
		t.Fatalf("%d expiries made %d invalidations and reached the watcher as %d notifications, want %d of each", n, len(store.refs), len(heard), n)
	}
	for i, ref := range store.refs {
		note := heard[i]
		if ev := note.Event; ev.Name != ModifiedEvent || len(ev.Args) != 3 || ev.Args[0].S != member[ref] ||
			credrec.State(ev.Args[1].I) != credrec.False {
			t.Errorf("notification %d is %v, want the membership derived from expiry %d (%s) False", i, ev, i, member[ref])
		}
		if i == 0 {
			continue
		}
		if prev := heard[i-1]; note.SessionID != prev.SessionID || note.Seq != prev.Seq+1 {
			t.Errorf("notification %d is session %d seq %d after session %d seq %d", i, note.SessionID, note.Seq, prev.SessionID, prev.Seq)
		}
	}
}
