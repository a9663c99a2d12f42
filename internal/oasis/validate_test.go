package oasis

import (
	"errors"
	"testing"
	"time"

	"oasis/internal/cert"
	"oasis/internal/value"
)

// TestValidationFailureClasses walks every failure of §4.2 and checks
// that fraud, erroneous use and revocation are distinguished (E2).
func TestValidationFailureClasses(t *testing.T) {
	h := newHarness(t)
	c := h.client("ely")
	rmc := h.logOn(t, c, "jmb")

	classOf := func(err error) FailureClass {
		t.Helper()
		var verr *ValidationError
		if !errors.As(err, &verr) {
			t.Fatalf("err = %v (not a ValidationError)", err)
		}
		return verr.Class
	}

	// 1. Acting under another identifier / 3. stolen certificate.
	thief := h.client("bad")
	if got := classOf(h.login.Validate(rmc, thief)); got != Fraud {
		t.Errorf("stolen certificate class = %v, want fraud", got)
	}

	// 2. Forged or modified certificate.
	forged := *rmc
	forged.Args = []value.Value{uid("root"), value.Object("Login.host", "ely")}
	if got := classOf(h.login.Validate(&forged, c)); got != Fraud {
		t.Errorf("forged certificate class = %v, want fraud", got)
	}

	// 4. Issued by a different service / wrong context.
	if got := classOf(h.conf.Validate(rmc, c)); got != Erroneous {
		t.Errorf("wrong-service class = %v, want erroneous", got)
	}

	// 6. Revoked certificate — the only well-behaved failure.
	if err := h.login.Exit(rmc, c); err != nil {
		t.Fatal(err)
	}
	if got := classOf(h.login.Validate(rmc, c)); got != Revoked {
		t.Errorf("revoked class = %v, want revoked", got)
	}

	// No certificate at all.
	if got := classOf(h.login.Validate(nil, c)); got != Erroneous {
		t.Errorf("nil certificate class = %v, want erroneous", got)
	}
	// … nor among the credentials of an entry: what "creds":[null]
	// decodes to at either front door.
	_, err := h.conf.Enter(EnterRequest{Client: c, Rolefile: "main", Role: "Chair", Creds: []*cert.RMC{nil}})
	if got := classOf(err); got != Erroneous {
		t.Errorf("nil credential class = %v, want erroneous", got)
	}
}

func TestCertificateExpiry(t *testing.T) {
	h := newHarness(t)
	svc, _ := New("TTL", h.clk, h.net, Options{CertTTL: time.Minute})
	if err := svc.AddRolefile("main", `R(u) <- Login.LoggedOn(u, h)`); err != nil {
		t.Fatal(err)
	}
	c := h.client("ely")
	login := h.logOn(t, c, "dm")
	rmc, err := svc.Enter(EnterRequest{Client: c, Rolefile: "main", Role: "R", Creds: []*cert.RMC{login}})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Validate(rmc, c); err != nil {
		t.Fatal(err)
	}
	h.clk.Advance(2 * time.Minute)
	err = svc.Validate(rmc, c)
	var verr *ValidationError
	if !errors.As(err, &verr) || verr.Class != Revoked {
		t.Fatalf("expired certificate: %v", err)
	}
}

func TestAuditCounters(t *testing.T) {
	// §4.13: fraudulent and erroneous accesses are recorded and can be
	// distinguished from reasonable (revocation) failures.
	h := newHarness(t)
	c := h.client("ely")
	rmc := h.logOn(t, c, "jmb")
	thief := h.client("bad")

	_ = h.login.Validate(rmc, thief) // fraud
	_ = h.login.Validate(rmc, c)     // ok
	_ = h.login.Exit(rmc, c)
	_ = h.login.Validate(rmc, c) // revoked

	a := auditOf(h.login)
	if a.issued != 1 {
		t.Errorf("issued = %d", a.issued)
	}
	if a.fraud != 1 {
		t.Errorf("fraud = %d", a.fraud)
	}
	if a.revoked != 1 {
		t.Errorf("revocation = %d", a.revoked)
	}
	if a.validated < 2 { // the ok validate + the one inside Exit
		t.Errorf("validated = %d", a.validated)
	}
}

func TestValidationCacheability(t *testing.T) {
	// §4.2: once checked, integrity may be cached; the revocation check
	// remains a single record lookup. We verify Valid() is the only
	// thing that flips on revocation, via repeated validations.
	h := newHarness(t)
	c := h.client("ely")
	rmc := h.logOn(t, c, "jmb")
	for i := 0; i < 100; i++ {
		if err := h.login.Validate(rmc, c); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.login.Exit(rmc, c); err != nil {
		t.Fatal(err)
	}
	if err := h.login.Validate(rmc, c); err == nil {
		t.Fatal("revoked certificate validated")
	}
}

func TestHasRoleAndRoleNames(t *testing.T) {
	h := newHarness(t)
	c := h.client("ely")
	rmc := h.logOn(t, c, "jmb")
	if !h.login.HasRole(rmc, "main", "LoggedOn") {
		t.Fatal("HasRole false for held role")
	}
	if h.login.HasRole(rmc, "main", "Chair") {
		t.Fatal("HasRole true for unknown role")
	}
	if h.login.HasRole(rmc, "other", "LoggedOn") {
		t.Fatal("HasRole true for wrong rolefile")
	}
}

func TestRolefileManagement(t *testing.T) {
	h := newHarness(t)
	if err := h.login.AddRolefile("main", `X <-`); err == nil {
		t.Fatal("duplicate rolefile id accepted")
	}
	if err := h.login.AddRolefile("bad", `X <- Y(`); err == nil {
		t.Fatal("syntax error accepted")
	}
	if err := h.login.AddRolefile("bad2", `X(a) <-`); err == nil {
		t.Fatal("uninferrable rolefile accepted")
	}
	if _, err := h.login.rolefileFor("missing"); err == nil {
		t.Fatal("unknown rolefile found")
	}
}
