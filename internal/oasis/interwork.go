package oasis

import (
	"fmt"

	"oasis/internal/cert"
	"oasis/internal/credrec"
	"oasis/internal/ids"
	"oasis/internal/value"
)

// IssueDirect mints a role membership certificate outside RDL policy —
// the §4.12 mechanism: "a service may issue and revoke role membership
// certificates for *any* reason. Role entry due to policy expressed in
// RDL is simply the more usual case." Bootstrap services (loaders,
// password services) and adapters for legacy or alternative access
// control schemes use this to bring their clients into OASIS name
// spaces.
//
// The role must be declared in the rolefile (certificate role bits come
// from the fixed role map); args are type-checked against its
// signature. The returned certificate carries a fresh credential
// record, revocable with RevokeDirect or Exit like any other.
func (s *Service) IssueDirect(client ids.ClientID, rolefile, role string, args []value.Value) (*cert.RMC, error) {
	st, err := s.rolefileFor(rolefile)
	if err != nil {
		return nil, err
	}
	bit, ok := st.roleMap.Bit(role)
	if !ok {
		return nil, fmt.Errorf("oasis: role %s is not declared in rolefile %s", role, st.id)
	}
	types := st.rf.Types[role]
	if len(args) != len(types) {
		return nil, fmt.Errorf("oasis: role %s takes %d arguments, got %d", role, len(types), len(args))
	}
	for i, a := range args {
		if !a.T.Equal(types[i]) {
			return nil, fmt.Errorf("oasis: argument %d of %s has type %v, expected %v", i+1, role, a.T, types[i])
		}
	}
	crr := s.store.NewFact(credrec.True)
	if err := s.store.MarkDirectUse(crr); err != nil {
		return nil, err
	}
	c := &cert.RMC{
		Service:  s.name,
		Rolefile: st.id,
		Roles:    cert.RoleSet(0).With(bit),
		Args:     args,
		Client:   client,
		CRR:      crr,
	}
	if s.opts.CertTTL > 0 {
		c.Expiry = s.clk.Now().Add(s.opts.CertTTL)
	}
	c.Sign(s.signer)
	s.issued.Add(1)
	return c, nil
}

// RevokeDirect invalidates a directly issued certificate's credential
// record — the revocation half of the §4.12 mechanism, used when the
// external scheme that justified issuance withdraws its grant.
func (s *Service) RevokeDirect(c *cert.RMC) error {
	if c.Service != s.name {
		return s.fail(Erroneous, "certificate issued by %q presented to %q", c.Service, s.name)
	}
	if !c.Verify(s.signer) {
		return s.fail(Fraud, "signature check failed")
	}
	// Invalidating the record is one mutation: each watcher's session is
	// handed the whole cascade as one Modified event before this returns.
	return s.store.Invalidate(c.CRR)
}

// SweepTick garbage-collects the credential record table (§4.8):
// permanent records are unlinked and permanently-false or uninteresting
// records deleted; the group table drops entries whose records are
// gone. The duty loop runs it once a period (StartDuties); it returns
// the number of records freed.
func (s *Service) SweepTick() int {
	n := s.store.Sweep()
	s.groups.Compact()
	return n
}
