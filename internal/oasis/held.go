package oasis

import (
	"sync/atomic"

	"oasis/internal/cert"
)

// Held is a role membership certificate this service issued and keeps
// on its own side — the certificate behind a gateway token. No client
// ever sends its bytes: a 128-bit random token resolves to it, so the
// service's own record stands where a presented certificate's
// signature would (§4.2: a service that keeps a record of what it
// issued may rely on that record, cert.RecordSigner). Its signature
// therefore has one job left, which is to die with its secret (§5.5.1):
// it is checked at first use and again only after the signer's
// accepted-secret set changes. The verdict is kept here, with the
// holder: it is the only signature verdict the service remembers. A
// certificate that arrives from outside is verified on every use.
type Held struct {
	cert *cert.RMC
	// passed is the signer epoch + 1 under which the signature last
	// verified; 0 means it has not been checked. Concurrent uses race
	// on it harmlessly: two first uses both verify, and storing an
	// older epoch only costs the next use a check.
	passed atomic.Uint64
}

// Hold wraps a certificate this service issued for keeping
// server-side. The certificate must not be changed afterwards.
func Hold(c *cert.RMC) *Held { return &Held{cert: c} }

// Cert returns the held certificate. Presenting it elsewhere — as a
// revoker's credential, say — goes through the presented-certificate
// checks like any other.
func (h *Held) Cert() *cert.RMC { return h.cert }

// checkHeld is what a held certificate's every use starts with: the
// issuing service, then the signature unless it passed under the
// signer's current epoch. The epoch is read before verifying, so a
// roll landing mid-check leaves a memo the next use finds stale: the
// safe direction.
func (s *Service) checkHeld(h *Held) error {
	c := h.cert
	if c.Service != s.name {
		return s.fail(Erroneous, "certificate issued by %q presented to %q", c.Service, s.name)
	}
	var epoch uint64
	if es, ok := s.signer.(cert.EpochSigner); ok {
		epoch = es.Epoch()
	}
	if h.passed.Load() != epoch+1 {
		s.heldVerified.Add(1)
		if !c.Verify(s.signer) {
			return s.fail(Fraud, "signature check failed")
		}
		h.passed.Store(epoch + 1)
	}
	return nil
}

// ValidateHeld is Validate for a held certificate, with the same
// failure classes and audit counters: the issuing service, expiry and
// the credential record are checked on every use, the signature under
// the held rule. The client check is absent — the holder presents the
// certificate on its bound client's behalf. A Fraud verdict means the
// signature no longer verifies, which for a certificate this service
// signed means its secret has rolled out: that is final.
func (s *Service) ValidateHeld(h *Held) error {
	if err := s.checkHeld(h); err != nil {
		return err
	}
	return s.checkLive(h.cert)
}

// RevokeHeld is RevokeDirect for a held certificate: the signature is
// checked under the held rule, and a Fraud verdict (its secret has
// rolled out) invalidates nothing.
func (s *Service) RevokeHeld(h *Held) error {
	if err := s.checkHeld(h); err != nil {
		return err
	}
	// As RevokeDirect: one event per watcher, handed to its session
	// before this returns.
	return s.store.Invalidate(h.cert.CRR)
}
