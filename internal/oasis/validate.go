package oasis

import (
	"fmt"
	"sync/atomic"

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

// Audit holds the per-class rejection counters and issuance counts that
// §4.13 notes are available for administration.
type Audit struct {
	Issued     uint64
	Validated  uint64
	FraudCount uint64
	ErrorCount uint64
	Revocation uint64
}

// auditCounters is the live, concurrently-updated form of Audit: plain
// atomics, so the validation success path and AuditSnapshot never take
// a lock (and never race — the seed serialised increments behind the
// service mutex but still handed out copies mid-update).
type auditCounters struct {
	issued     atomic.Uint64
	validated  atomic.Uint64
	fraud      atomic.Uint64
	errors     atomic.Uint64
	revocation atomic.Uint64
}

// AuditSnapshot returns a copy of the audit counters.
func (s *Service) AuditSnapshot() Audit {
	return Audit{
		Issued:     s.audit.issued.Load(),
		Validated:  s.audit.validated.Load(),
		FraudCount: s.audit.fraud.Load(),
		ErrorCount: s.audit.errors.Load(),
		Revocation: s.audit.revocation.Load(),
	}
}

func (s *Service) countFailure(c FailureClass) {
	switch c {
	case Fraud:
		s.audit.fraud.Add(1)
	case Erroneous:
		s.audit.errors.Add(1)
	case Revoked:
		s.audit.revocation.Add(1)
	}
}

func (s *Service) fail(class FailureClass, format string, args ...any) *ValidationError {
	s.countFailure(class)
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
	if !s.verifyCert(c) {
		// Condition 2: forged or modified.
		return s.fail(Fraud, "signature check failed")
	}
	if !c.Expiry.IsZero() && s.clk.Now().After(c.Expiry) {
		return s.fail(Revoked, "certificate expired")
	}
	state, err := s.store.Lookup(c.CRR)
	if err != nil || state != credrec.True {
		// Condition 6: revoked, or possibly revoked (unknown state must
		// be treated as revoked, §4.2 footnote).
		return s.fail(Revoked, "credential record %v is %v", c.CRR, stateName(state, err))
	}
	s.audit.validated.Add(1)
	return nil
}

// verifyCert is the engine's signature check for role membership
// certificates. Every inbound check — front door or peer port —
// presents a freshly decoded *cert.RMC, so the verdict is remembered in
// the service's cert.VerifyCache (its three soundness rules are stated
// there) instead of redoing the serialisation and, for a rolling
// signer, the walk over every retained secret (§5.5.1). Neither a hit
// nor a miss writes to c.
func (s *Service) verifyCert(c *cert.RMC) bool {
	return s.sigs.VerifyRMC(c, s.signer)
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
	return st.roleMap.Names(c.Roles)
}

// Exit voluntarily gives up a role membership (§4.4 footnote): the
// certificate's credential record is permanently invalidated, cascading
// to anything derived from it — including delegations that asked for
// revocation on exit.
func (s *Service) Exit(c *cert.RMC, caller ids.ClientID) error {
	if err := s.Validate(c, caller); err != nil {
		return err
	}
	return s.batchNotify(func() error { return s.store.Invalidate(c.CRR) })
}
