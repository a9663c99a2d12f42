package oasis

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oasis/internal/cert"
	"oasis/internal/ids"
	"oasis/internal/value"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/entry_scenarios.golden from this run")

// transcript records what the rule engine decided, in the order it
// decided it: one line per issued certificate, one per refusal, and at
// the end the credential-record image of every service the scenarios
// touched.
type transcript struct {
	t        *testing.T
	h        *harness
	b        bytes.Buffer
	services []*Service
}

// issued flattens a certificate to the facts the RDL engine decided:
// the compound role set, the argument vector, and the credential record
// the membership hangs from (which the image below places in the graph).
func (tr *transcript) issued(label string, svc *Service, rmc *cert.RMC, err error) *cert.RMC {
	tr.t.Helper()
	if err != nil {
		tr.t.Fatalf("%s: %v", label, err)
	}
	fmt.Fprintf(&tr.b, "%s: %s|%s|%s\n", label,
		strings.Join(svc.RoleNames(rmc), ","), value.MarshalArgs(rmc.Args), rmc.CRR)
	return rmc
}

// refused records an error the scenario expects, by its exact text.
func (tr *transcript) refused(label string, err error) {
	tr.t.Helper()
	if err == nil {
		tr.t.Fatalf("%s: succeeded, want a refusal", label)
	}
	fmt.Fprintf(&tr.b, "%s: refused: %v\n", label, err)
}

// service starts a further service on the harness network with one
// rolefile installed.
func (tr *transcript) service(name, src string) *Service {
	tr.t.Helper()
	svc, err := New(name, tr.h.clk, tr.h.net, Options{})
	if err != nil {
		tr.t.Fatal(err)
	}
	if err := svc.AddRolefile("main", src); err != nil {
		tr.t.Fatal(err)
	}
	tr.services = append(tr.services, svc)
	return svc
}

// elect delegates role(args) from the elector and has a fresh client on
// host "cam", logged on as user, accept it.
func (tr *transcript) elect(label string, svc *Service, req DelegateRequest, user string) (ids.ClientID, *cert.RMC, *cert.Revocation) {
	tr.t.Helper()
	deleg, rev, err := svc.Delegate(req)
	if err != nil {
		tr.t.Fatalf("%s: Delegate: %v", label, err)
	}
	cand := tr.h.client("cam")
	member, err := svc.EnterDelegated(EnterRequest{
		Client: cand, Rolefile: "main", Role: req.Role,
		Creds: []*cert.RMC{tr.h.logOn(tr.t, cand, user)}, Delegation: deleg,
	})
	return cand, tr.issued(label, svc, member, err), rev
}

func (tr *transcript) bytes() []byte {
	for _, svc := range tr.services {
		fmt.Fprintf(&tr.b, "== %s ==\n%s", svc.Name(), svc.Store().Image())
	}
	return tr.b.Bytes()
}

// runEntryScenarios drives one harness through role-entry scenarios
// that exercise every feature of rule application — literal-argument
// candidates, compound certificates, requested args, starred group
// conditions, and election in all its shapes: with and without
// delegated arguments, revocable, revoke-on-exit, starred elector, a
// binding constraint across elector and candidate, and elector or
// delegated arguments that do not fit the rule.
func runEntryScenarios(t *testing.T, h *harness) *transcript {
	t.Helper()
	tr := &transcript{t: t, h: h, services: []*Service{h.login, h.conf}}

	// Chair via a literal-argument candidate; the figure 3.1 rolefile.
	chairClient := h.client("ely")
	chairLogin := h.logOn(t, chairClient, "jmb")
	chair, err := h.conf.Enter(EnterRequest{
		Client: chairClient, Rolefile: "main", Role: "Chair",
		Creds: []*cert.RMC{chairLogin},
	})
	tr.issued("chair", h.conf, chair, err)

	// Member via election by the Chair, guarded by a starred group test.
	h.conf.Groups().AddMember("dm", "staff")
	h.conf.Groups().AddMember("sib", "staff")
	h.conf.Groups().AddMember("mallory", "staff")
	forDM := DelegateRequest{
		Client: chairClient, Rolefile: "main", Role: "Member",
		Args: []value.Value{uid("dm")}, ElectorCert: chair,
	}
	memberClient, member, rev := tr.elect("member", h.conf, forDM, "dm")

	// The rule binds u to dm: another staffer cannot use the delegation.
	deleg, _, err := h.conf.Delegate(forDM)
	if err != nil {
		t.Fatalf("Delegate: %v", err)
	}
	thief := h.client("bad")
	_, err = h.conf.EnterDelegated(EnterRequest{
		Client: thief, Rolefile: "main", Role: "Member",
		Creds: []*cert.RMC{h.logOn(t, thief, "mallory")}, Delegation: deleg,
	})
	tr.refused("member wrong candidate", err)

	// A delegation with nil Args leaves u to the candidate premise.
	open := forDM
	open.Args = nil
	tr.elect("member open delegation", h.conf, open, "sib")

	// Starred group revocation: removing dm from staff revokes Member.
	h.conf.Groups().RemoveMember("dm", "staff")
	tr.refused("member off staff", h.conf.Validate(member, memberClient))
	h.conf.Groups().AddMember("dm", "staff")
	if err := h.conf.Validate(member, memberClient); err != nil {
		t.Fatalf("Member not restored with staff membership: %v", err)
	}

	// The election is revocable (<|*): its revocation certificate kills
	// the member.
	if rev == nil {
		t.Fatal("starred election returned no revocation certificate")
	}
	if err := h.conf.Revoke(rev); err != nil {
		t.Fatalf("Revoke: %v", err)
	}
	tr.refused("member revoked", h.conf.Validate(member, memberClient))

	// Requested args select a rule (§3.4.3 login levels), and compound
	// derivation through an unconstrained rule (no-VM fast path).
	levels := tr.service("Levels", `
def Level(l, u) l: integer
Level(3, u) <- Login.LoggedOn(u, h) : h in secure
Level(2, u) <- Login.LoggedOn(u, h) : h in hosts
Level(1, u) <- Login.LoggedOn(u, h)
`)
	levels.Groups().AddMember("ely", "hosts")
	lvl, err := levels.Enter(EnterRequest{
		Client: chairClient, Rolefile: "main", Role: "Level",
		Args:  []value.Value{value.Int(1), uid("jmb")},
		Creds: []*cert.RMC{chairLogin},
	})
	tr.issued("level requested", levels, lvl, err)
	lvl, err = levels.Enter(EnterRequest{
		Client: chairClient, Rolefile: "main", Role: "Level",
		Creds: []*cert.RMC{chairLogin},
	})
	tr.issued("level default", levels, lvl, err)

	compound := tr.service("Compound", "Chair <- Login.LoggedOn(\"jmb\", h)\nMember <- Chair\n")
	both, err := compound.Enter(EnterRequest{
		Client: chairClient, Rolefile: "main", Role: "Chair",
		Creds: []*cert.RMC{chairLogin},
	})
	tr.issued("compound", compound, both, err)

	golfScenario(tr)
	meetScenario(tr, chairClient, chairLogin)
	return tr
}

// golfScenario is §3.4.5's quorum: joining takes recommendations from
// two different members, so the second election's constraint compares a
// variable the elector bound (m2) with one the candidate binds (m1).
// Captain adds an elector reference with a literal argument.
func golfScenario(tr *transcript) {
	t, h := tr.t, tr.h
	golf := tr.service("Golf", `
def Member(p) p: Login.userid
Member(p)  <- Login.LoggedOn(p, h) : p in founders
Rec(p, m1) <- Login.LoggedOn(p, h)* <| Member(m1)
Member(p)  <- Rec(p, m1)* <| Member(m2) : m1 != m2
Captain(p) <- Login.LoggedOn(p, h) <| Member("arnold")
`)
	golf.Groups().AddMember("arnold", "founders")
	golf.Groups().AddMember("gary", "founders")
	join := func(user string) (ids.ClientID, *cert.RMC) {
		c := h.client(user + "-host")
		m, err := golf.Enter(EnterRequest{Client: c, Rolefile: "main", Role: "Member",
			Args: []value.Value{uid(user)}, Creds: []*cert.RMC{h.logOn(t, c, user)}})
		return c, tr.issued("golf founder "+user, golf, m, err)
	}
	arnoldC, arnold := join("arnold")
	garyC, gary := join("gary")
	delegate := func(elector ids.ClientID, electorCert *cert.RMC, role string, args ...value.Value) (*cert.Delegation, error) {
		d, _, err := golf.Delegate(DelegateRequest{
			Client: elector, Rolefile: "main", Role: role, Args: args, ElectorCert: electorCert,
		})
		return d, err
	}

	jackC := h.client("jack-host")
	jackLogin := h.logOn(t, jackC, "jack")
	enter := func(role string, d *cert.Delegation, creds ...*cert.RMC) (*cert.RMC, error) {
		return golf.EnterDelegated(EnterRequest{
			Client: jackC, Rolefile: "main", Role: role, Creds: creds, Delegation: d,
		})
	}

	// arnold may recommend only as himself: the elector binds m1.
	_, err := delegate(arnoldC, arnold, "Rec", uid("jack"), uid("gary"))
	tr.refused("golf rec as another member", err)
	d1, err := delegate(arnoldC, arnold, "Rec", uid("jack"), uid("arnold"))
	if err != nil {
		t.Fatal(err)
	}
	rec1, err := enter("Rec", d1, jackLogin)
	tr.issued("golf rec", golf, rec1, err)

	// Seconded by the same member: m1 = m2, refused.
	dSame, err := delegate(arnoldC, arnold, "Member", uid("jack"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = enter("Member", dSame, jackLogin, rec1)
	tr.refused("golf same member twice", err)

	// Seconded by gary, a different member, jack joins.
	d2, err := delegate(garyC, gary, "Member", uid("jack"))
	if err != nil {
		t.Fatal(err)
	}
	member, err := enter("Member", d2, jackLogin, rec1)
	tr.issued("golf member", golf, member, err)

	// Only Member("arnold") elects captains.
	_, err = delegate(garyC, gary, "Captain", uid("jack"))
	tr.refused("golf captain by gary", err)
	dCap, err := delegate(arnoldC, arnold, "Captain", uid("jack"))
	if err != nil {
		t.Fatal(err)
	}
	captain, err := enter("Captain", dCap, jackLogin)
	tr.issued("golf captain", golf, captain, err)

	// The starred Rec candidate ties jack's membership to his login.
	if err := h.login.Exit(jackLogin, jackC); err != nil {
		t.Fatal(err)
	}
	tr.refused("golf member after logout", golf.Validate(member, jackC))
}

// meetScenario isolates what ties a delegation to its elector: the
// revoke-on-exit option (§4.4) and a starred elector role (§3.2.3).
func meetScenario(tr *transcript, chairClient ids.ClientID, chairLogin *cert.RMC) {
	t := tr.t
	meet := tr.service("Meet", `
Chair     <- Login.LoggedOn("jmb", h)
Member(u) <- Login.LoggedOn(u, h) <|* Chair
Guest(u)  <- Login.LoggedOn(u, h) <| Chair*
`)
	chair, err := meet.Enter(EnterRequest{
		Client: chairClient, Rolefile: "main", Role: "Chair", Creds: []*cert.RMC{chairLogin},
	})
	tr.issued("meet chair", meet, chair, err)
	req := func(role, user string, revokeOnExit bool) DelegateRequest {
		return DelegateRequest{
			Client: chairClient, Rolefile: "main", Role: role,
			Args: []value.Value{uid(user)}, ElectorCert: chair, RevokeOnExit: revokeOnExit,
		}
	}
	autoC, auto, _ := tr.elect("meet member revoke-on-exit", meet, req("Member", "auto", true), "auto")
	keepC, keep, _ := tr.elect("meet member", meet, req("Member", "keep", false), "keep")
	tiedC, tied, _ := tr.elect("meet guest of starred chair", meet, req("Guest", "tied", false), "tied")

	if err := meet.Exit(chair, chairClient); err != nil {
		t.Fatal(err)
	}
	tr.refused("meet revoke-on-exit member after chair exit", meet.Validate(auto, autoC))
	if err := meet.Validate(keep, keepC); err != nil {
		t.Fatalf("plain membership died on elector exit: %v", err)
	}
	tr.refused("meet guest after chair exit", meet.Validate(tied, tiedC))
}

// TestEntryScenariosGolden pins rule application to the committed
// transcript, certificates and credential-record graph alike. The
// golden was produced by the AST interpreter at the last commit that
// had one, so a byte-identical run is the proof that the compiled plan
// — the only engine now — decides exactly what the interpreter did.
func TestEntryScenariosGolden(t *testing.T) {
	got := runEntryScenarios(t, newHarness(t)).bytes()
	path := filepath.Join("testdata", "entry_scenarios.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("rule application drifted from %s (re-run with -update if deliberate)\n got:\n%s\nwant:\n%s",
			path, got, want)
	}
}
