package oasis

import (
	"errors"
	"testing"
	"time"

	"oasis/internal/cert"
	"oasis/internal/credrec"
	"oasis/internal/value"
)

// TestHeldMatchesValidate: for every way a certificate can fail —
// wrong service, forgery, expiry, revocation, a secret rolled out —
// ValidateHeld answers with Validate's failure class and moves the
// audit counters as Validate does; RevokeHeld answers a wrong service
// and a rolled-out secret as RevokeDirect does, and invalidates nothing
// for either.
func TestHeldMatchesValidate(t *testing.T) {
	signer := cert.NewRollingSigner([]byte("gen0"), 16, 1)
	h := newHarnessWith(t, Options{Signer: signer, CertTTL: time.Hour}, Options{})
	c := h.client("ely")
	classOf := func(err error) FailureClass {
		var verr *ValidationError
		if err == nil || !errors.As(err, &verr) {
			return 0
		}
		return verr.Class
	}
	same := func(what string, svc *Service, rmc *cert.RMC, want FailureClass) {
		t.Helper()
		before := auditOf(svc)
		got := classOf(svc.Validate(rmc, c))
		mid := auditOf(svc)
		held := classOf(svc.ValidateHeld(Hold(rmc)))
		after := auditOf(svc)
		if got != want || held != want {
			t.Errorf("%s: Validate class %v, ValidateHeld %v, want %v", what, got, held, want)
		}
		if d1, d2 := mid.minus(before), after.minus(mid); d1 != d2 {
			t.Errorf("%s: Validate moved the audit by %+v, ValidateHeld by %+v", what, d1, d2)
		}
	}

	live := h.logOn(t, c, "jmb")
	same("live", h.login, live, 0)
	same("wrong service", h.conf, live, Erroneous)
	forged := *live
	forged.Args = []value.Value{uid("root"), value.Object("Login.host", "ely")}
	same("forged", h.login, &forged, Fraud)

	revoked := h.logOn(t, c, "dm")
	if err := h.login.Exit(revoked, c); err != nil {
		t.Fatal(err)
	}
	same("revoked", h.login, revoked, Revoked)

	h.clk.Advance(2 * time.Hour)
	same("expired", h.login, live, Revoked)

	fresh := h.logOn(t, c, "ken")
	held := Hold(fresh)
	if err := h.login.ValidateHeld(held); err != nil {
		t.Fatalf("fresh held certificate: %v", err)
	}
	if classOf(h.conf.RevokeHeld(held)) != Erroneous || classOf(h.conf.RevokeDirect(fresh)) != Erroneous {
		t.Error("revoking at the wrong service is not erroneous")
	}
	signer.Roll([]byte("gen1"))
	same("rolled out", h.login, fresh, Fraud)
	if got := classOf(h.login.ValidateHeld(held)); got != Fraud {
		t.Errorf("held certificate checked before the roll: class %v after it, want fraud", got)
	}
	if classOf(h.login.RevokeHeld(held)) != Fraud || classOf(h.login.RevokeDirect(fresh)) != Fraud {
		t.Error("revoking a rolled-out certificate is not fraud")
	}
	if st, err := h.login.Store().Lookup(fresh.CRR); err != nil || st != credrec.True {
		t.Errorf("refused revocations changed the credential record: %v %v", st, err)
	}
}
