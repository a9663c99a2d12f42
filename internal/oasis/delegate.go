package oasis

import (
	"time"

	"oasis/internal/cert"
	"oasis/internal/credrec"
	"oasis/internal/ids"
	"oasis/internal/rdl"
	"oasis/internal/value"
)

// DelegateRequest asks the service for a delegation certificate (§4.4):
// the elector (holding ElectorCert) offers entry to Role with Args to
// any client holding the Required roles.
type DelegateRequest struct {
	Client      ids.ClientID // the elector's client identifier
	Rolefile    string
	Role        string
	Args        []value.Value   // concrete parameters of the delegated role
	Required    []cert.RoleSpec // roles the candidate must hold (§4.4)
	ElectorCert *cert.RMC
	// RevokeOnExit requests automatic revocation when the elector exits
	// their role (§4.4).
	RevokeOnExit bool
	// TTL bounds the delegation's life; zero uses the service default.
	TTL time.Duration
}

// electionCtx carries a validated delegation into rule application.
type electionCtx struct {
	info  *delegInfo
	deleg *cert.Delegation
}

// Delegate issues a delegation certificate and, when the rolefile makes
// the delegation revocable (the star on the election operator, §3.2.3),
// a matching revocation certificate. Both parties must agree: the
// candidate later accepts by presenting the delegation certificate when
// entering the role (§4.4).
func (s *Service) Delegate(req DelegateRequest) (*cert.Delegation, *cert.Revocation, error) {
	st, err := s.rolefileFor(req.Rolefile)
	if err != nil {
		return nil, nil, err
	}
	if err := s.Validate(req.ElectorCert, req.Client); err != nil {
		return nil, nil, err
	}
	// Find the first election rule for this role whose elector role the
	// certificate carries.
	ri := -1
	for _, i := range st.prog.RulesFor(req.Role) {
		if e := st.prog.Rules[i].Elector; e != nil && s.HasRole(req.ElectorCert, st.id, e.Name) {
			ri = i
			break
		}
	}
	if ri < 0 {
		return nil, nil, s.fail(Erroneous, "no election rule lets %v delegate %s", req.Client, req.Role)
	}
	cr := &st.prog.Rules[ri]

	// Bind elector-side variables: elector role arguments and, if given,
	// the delegated role's arguments. The bindings are saved with the
	// delegation and seed the rule's registers again at delegated entry.
	m := st.machines.Get().(*rdl.Machine)
	defer st.machines.Put(m)
	m.Reset(ri)
	// A parameterless elector reference asks nothing of the
	// certificate's arguments.
	if len(cr.Elector.Args) > 0 && !m.MatchPlan(cr.Elector, req.ElectorCert.Args) {
		return nil, nil, s.fail(Erroneous, "elector certificate arguments do not fit rule")
	}
	if req.Args != nil && !m.MatchPlan(&cr.Head, req.Args) {
		return nil, nil, s.fail(Erroneous, "delegated role arguments do not fit rule")
	}
	bindings := m.ResultEnv()

	// The delegation's credential record. Continued elector membership
	// (a starred elector role, §3.2.3) and revoke-on-exit both make it a
	// child of the elector's own record, so exit or revocation of the
	// elector cascades to the delegation.
	var delegCRR credrec.Ref
	if cr.Elector.Starred || req.RevokeOnExit {
		delegCRR = s.store.NewDerived(credrec.OpAnd, credrec.Of(req.ElectorCert.CRR))
	} else {
		delegCRR = s.store.NewFact(credrec.True)
	}
	if req.RevokeOnExit {
		if err := s.store.MarkAutoRevoke(delegCRR); err != nil {
			return nil, nil, err
		}
	}

	ttl := req.TTL
	if ttl == 0 {
		ttl = s.opts.DelegationTTL
	}
	var expiry time.Time
	if ttl > 0 {
		expiry = s.clk.Now().Add(ttl)
	}
	d := &cert.Delegation{
		Service:  s.name,
		Rolefile: st.id,
		Role:     req.Role,
		Args:     req.Args,
		Required: req.Required,
		DelegCRR: delegCRR,
		Expiry:   expiry,
	}
	d.Sign(s.signer)

	s.delegMu.Lock()
	s.delegations[delegCRR] = &delegInfo{
		rolefile: st.id,
		rule:     ri,
		bindings: bindings,
		expiry:   expiry,
	}
	s.delegMu.Unlock()

	// A revocation certificate is returned only when the rolefile makes
	// the delegation revocable (§3.2.3: the star on the <| operator).
	var rev *cert.Revocation
	if cr.Rule.ElectStarred {
		rev = &cert.Revocation{
			Service:      s.name,
			DelegatorCRR: req.ElectorCert.CRR,
			TargetCRR:    delegCRR,
		}
		rev.Sign(s.signer)
	}
	return d, rev, nil
}

// EnterDelegated performs role entry by election: the candidate accepts
// a delegation by presenting the delegation certificate together with
// certificates for the roles the delegator and the rolefile require
// (§4.4: a separate RPC from standard entry).
func (s *Service) EnterDelegated(req EnterRequest) (*cert.RMC, error) {
	d := req.Delegation
	if d == nil {
		return nil, s.fail(Erroneous, "no delegation certificate supplied")
	}
	if d.Service != s.name {
		return nil, s.fail(Erroneous, "delegation issued by %q presented to %q", d.Service, s.name)
	}
	if !d.Verify(s.signer) {
		return nil, s.fail(Fraud, "delegation signature check failed")
	}
	if !d.Expiry.IsZero() && s.clk.Now().After(d.Expiry) {
		return nil, s.fail(Revoked, "delegation expired")
	}
	if !s.store.Valid(d.DelegCRR) {
		return nil, s.fail(Revoked, "delegation revoked")
	}
	s.delegMu.Lock()
	info, ok := s.delegations[d.DelegCRR]
	s.delegMu.Unlock()
	if !ok {
		return nil, s.fail(Erroneous, "unknown delegation")
	}
	st, err := s.rolefileFor(info.rolefile)
	if err != nil {
		return nil, err
	}
	list, err := s.initialList(st, req.Client, req.Creds)
	if err != nil {
		return nil, err
	}
	// The candidate must hold every role the delegator required.
	for _, spec := range d.Required {
		if !holdsSpec(list, spec) {
			return nil, s.fail(Erroneous, "candidate lacks required role %s", spec)
		}
	}
	list = s.applyRules(st, req, list, &electionCtx{info: info, deleg: d})
	if req.Role == "" {
		req.Role = d.Role
	}
	return s.selectAndIssue(st, req, list)
}

// holdsSpec reports whether the membership list covers a required role.
func holdsSpec(list []*held, spec cert.RoleSpec) bool {
	for _, h := range list {
		if h.name != spec.Role || h.service != spec.Service {
			continue
		}
		if spec.Rolefile != "" && h.rolefile != spec.Rolefile {
			continue
		}
		if !argsEqual(h.args, spec.Args) {
			continue
		}
		return true
	}
	return false
}

// Revoke honours a revocation certificate (§4.4): the delegator must
// still be a member of the delegating role, witnessed by the embedded
// DelegatorCRR; the target delegation record is then invalidated, which
// cascades to every certificate that depended on it.
func (s *Service) Revoke(rev *cert.Revocation) error {
	if rev.Service != s.name {
		return s.fail(Erroneous, "revocation issued by %q presented to %q", rev.Service, s.name)
	}
	if !rev.Verify(s.signer) {
		return s.fail(Fraud, "revocation signature check failed")
	}
	if !s.store.Valid(rev.DelegatorCRR) {
		return s.fail(Revoked, "revoker is no longer a member of the delegating role")
	}
	if err := s.store.Invalidate(rev.TargetCRR); err != nil {
		return s.fail(Revoked, "delegation already gone: %v", err)
	}
	s.delegMu.Lock()
	delete(s.delegations, rev.TargetCRR)
	s.delegMu.Unlock()
	return nil
}

// RevokeByRole performs role-based revocation (§3.3.2, §4.11): a client
// holding the revoker role names the role instance — by its parameters,
// since the revoker may not know the member's identity — and the
// instance is revoked forever (until reinstated).
func (s *Service) RevokeByRole(revoker *cert.RMC, caller ids.ClientID, rolefile, role string, args []value.Value) error {
	st, err := s.rolefileFor(rolefile)
	if err != nil {
		return err
	}
	if err := s.Validate(revoker, caller); err != nil {
		return err
	}
	key := instanceKey(role, args)
	st.mu.Lock()
	entry, ok := st.revocable[key]
	st.mu.Unlock()
	if !ok {
		return s.fail(Erroneous, "no revocable instance %s", key)
	}
	if !s.HasRole(revoker, st.id, entry.revokerRole) {
		return s.fail(Erroneous, "caller does not hold revoker role %s", entry.revokerRole)
	}
	if err := s.store.Invalidate(entry.crr); err != nil && err != credrec.ErrDangling {
		return err
	}
	st.mu.Lock()
	st.revoked[key] = true
	delete(st.revocable, key)
	st.mu.Unlock()
	return nil
}

// Reinstate removes a role instance from the revoked-forever database,
// restoring hire / fire / re-hire semantics (§4.11). The caller must
// hold the revoker role for some rule defining the role.
//
//oasislint:keep §4.11 hire / fire / re-hire
func (s *Service) Reinstate(revoker *cert.RMC, caller ids.ClientID, rolefile, role string, args []value.Value) error {
	st, err := s.rolefileFor(rolefile)
	if err != nil {
		return err
	}
	if err := s.Validate(revoker, caller); err != nil {
		return err
	}
	allowed := false
	for _, r := range st.rf.File.Rules {
		if r.Head.Name == role && r.Revoker != nil && s.HasRole(revoker, st.id, r.Revoker.Name) {
			allowed = true
			break
		}
	}
	if !allowed {
		return s.fail(Erroneous, "caller may not reinstate %s", role)
	}
	key := instanceKey(role, args)
	st.mu.Lock()
	delete(st.revoked, key)
	st.mu.Unlock()
	return nil
}

// ExpireTick invalidates delegations whose lifetime has passed (§4.4:
// automatic revocation prevents un-revokable delegations and lets the
// server delete stale revocation state) and reports how many. It also
// forgets delegations whose record died some other way — by cascade
// from the elector's exit or revocation — so the bookkeeping is bounded
// by the live delegations; a dead record is permanently False or
// already swept, and EnterDelegated refuses it before consulting the
// bookkeeping. The duty loop runs it once a period.
func (s *Service) ExpireTick() int {
	now := s.clk.Now()
	s.delegMu.Lock()
	var expired []credrec.Ref
	for ref, info := range s.delegations {
		if !info.expiry.IsZero() && now.After(info.expiry) {
			expired = append(expired, ref)
			delete(s.delegations, ref)
		} else if state, permanent, _ := s.store.Resolve(ref); state == credrec.False && permanent {
			// A dangling reference resolves the same way: revoked and swept.
			delete(s.delegations, ref)
		}
	}
	s.delegMu.Unlock()
	for _, ref := range expired {
		_ = s.store.Invalidate(ref) // already-gone records are fine
	}
	return len(expired)
}
