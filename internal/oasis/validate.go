package oasis

import (
	"fmt"

	"oasis/internal/cert"
	"oasis/internal/credrec"
	"oasis/internal/ids"
)

// FailureClass classifies validation failures (§4.2): fraud (forged,
// tampered, stolen certificates or impersonated clients), erroneous use
// (wrong service or context, insufficient rights), and revocation — the
// only class a well-behaved client can trigger.
type FailureClass int

// Validation failure classes.
const (
	Fraud FailureClass = iota + 1
	Erroneous
	Revoked
)

// String names the class.
func (c FailureClass) String() string {
	switch c {
	case Fraud:
		return "fraud"
	case Erroneous:
		return "erroneous"
	case Revoked:
		return "revoked"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// ValidationError reports why a certificate was rejected, carrying the
// failure class so services can record fraud separately (§4.2, §4.13).
// Cause, when set, is the transport error that kept the issuer from
// being asked (errors.Is sees through to it, e.g. bus.ErrCallDeadline).
type ValidationError struct {
	Class  FailureClass
	Reason string
	Cause  error
}

// Error implements error.
func (e *ValidationError) Error() string {
	return fmt.Sprintf("oasis: certificate rejected (%s): %s", e.Class, e.Reason)
}

// Unwrap returns the cause, if any.
func (e *ValidationError) Unwrap() error { return e.Cause }

func (s *Service) fail(class FailureClass, format string, args ...any) *ValidationError {
	s.rejected[class].Add(1)
	return &ValidationError{Class: class, Reason: fmt.Sprintf(format, args...)}
}

// Validate performs the three-stage validation of §4.2 on a role
// membership certificate presented by caller:
//  1. the caller's identity must match the certificate's bound client
//     (the transport authenticates the low-level identifier);
//  2. the signature must verify, proving integrity and context;
//  3. the embedded credential record must currently be true.
//
// Checking that the certificate embodies sufficient rights for an
// operation is application-specific and not done here.
func (s *Service) Validate(c *cert.RMC, caller ids.ClientID) error {
	if c == nil {
		return s.fail(Erroneous, "no certificate supplied")
	}
	if c.Client != caller {
		// Condition 1/3: acting under another identifier, or a stolen
		// certificate.
		return s.fail(Fraud, "certificate bound to %v presented by %v", c.Client, caller)
	}
	if c.Service != s.name {
		// Condition 4: issued by a different service.
		return s.fail(Erroneous, "certificate issued by %q presented to %q", c.Service, s.name)
	}
	if !c.Verify(s.signer) {
		// Condition 2: forged or modified.
		return s.fail(Fraud, "signature check failed")
	}
	return s.checkLive(c)
}

// checkLive is the part of validation every use of a certificate
// repeats, presented or held: its expiry and its credential record.
func (s *Service) checkLive(c *cert.RMC) error {
	if !c.Expiry.IsZero() && s.clk.Now().After(c.Expiry) {
		return s.fail(Revoked, "certificate expired")
	}
	state, err := s.store.Lookup(c.CRR)
	if err != nil || state != credrec.True {
		// Condition 6: revoked, or possibly revoked (unknown state must
		// be treated as revoked, §4.2 footnote).
		return s.fail(Revoked, "credential record %v is %v", c.CRR, stateName(state, err))
	}
	s.validated.Add(1)
	return nil
}

func stateName(st credrec.State, err error) string {
	if err != nil {
		return "deleted"
	}
	return st.String()
}

// HasRole checks a validated certificate for membership of a named role
// within a rolefile (the application-specific stage 4 helper).
func (s *Service) HasRole(c *cert.RMC, rolefile, role string) bool {
	st, err := s.rolefileFor(rolefile)
	if err != nil || c.Rolefile != st.id {
		return false
	}
	bit, ok := st.roleMap.Bit(role)
	return ok && c.Roles.Has(bit)
}

// RoleNames expands a certificate's compound role set to names.
func (s *Service) RoleNames(c *cert.RMC) []string {
	st, err := s.rolefileFor(c.Rolefile)
	if err != nil {
		return nil
	}
	return st.roleMap.AppendNames(nil, c.Roles)
}

// Exit voluntarily gives up a role membership (§4.4 footnote): the
// certificate's credential record is permanently invalidated, cascading
// to anything derived from it — including delegations that asked for
// revocation on exit.
func (s *Service) Exit(c *cert.RMC, caller ids.ClientID) error {
	if err := s.Validate(c, caller); err != nil {
		return err
	}
	return s.store.Invalidate(c.CRR)
}
