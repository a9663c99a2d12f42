package oasis

import (
	"fmt"

	"oasis/internal/cert"
	"oasis/internal/credrec"
	"oasis/internal/ids"
	"oasis/internal/rdl"
	"oasis/internal/value"
)

// EnterRequest asks for entry to a role (§3.2.2). Args may be nil to
// accept whatever parameters the applicable rules produce — the "first
// suitable membership" of the precedence algorithm — or concrete values
// to select a specific instance (and to supply claimed parameters for
// rules with no premises, like the paper's Visitor login).
type EnterRequest struct {
	Client     ids.ClientID
	Rolefile   string
	Role       string
	Args       []value.Value
	Creds      []*cert.RMC
	Delegation *cert.Delegation // set for role entry by election (§4.4)
}

// held is one entry on the working membership list of §3.2.2.
type held struct {
	service  string // issuing service; "" for this service
	rolefile string
	name     string
	args     []value.Value

	// Validity support: either an existing credential record (for
	// certificate-backed memberships), or the accumulated support of an
	// intermediate membership derived during this entry.
	crr      credrec.Ref
	hasCRR   bool
	parents  []credrec.Parent
	revokers []revokerReq
}

// revokerReq is a pending role-based-revocation clause (§4.11) to be
// instantiated when the membership is issued.
type revokerReq struct {
	revokerRole string
	instance    string
}

// starSupport returns the parents contributed when this membership is
// used as a *starred* candidate: its own record if it has one, or the
// support it accumulated as an intermediate.
func (h *held) starSupport() ([]credrec.Parent, []revokerReq) {
	if h.hasCRR {
		return []credrec.Parent{credrec.Of(h.crr)}, nil
	}
	return h.parents, h.revokers
}

// Enter performs role entry from existing credentials (the standard
// form RPC). Election rules are not applicable here — delegated entry
// is a separate call, EnterDelegated (§4.4).
func (s *Service) Enter(req EnterRequest) (*cert.RMC, error) {
	if req.Delegation != nil {
		return s.EnterDelegated(req)
	}
	st, err := s.rolefileFor(req.Rolefile)
	if err != nil {
		return nil, err
	}
	list, err := s.initialList(st, req.Client, req.Creds)
	if err != nil {
		return nil, err
	}
	list = s.applyRules(st, req, list, nil)
	return s.selectAndIssue(st, req, list)
}

// initialList validates the supplied certificates and seeds the
// membership list. Foreign certificates are validated by callback to
// their issuing service, producing external credential records (§4.9.1).
func (s *Service) initialList(st *rolefileState, client ids.ClientID, creds []*cert.RMC) ([]*held, error) {
	var list []*held
	for _, c := range creds {
		if c == nil {
			// "creds":[null] decodes to this, at either front door.
			return nil, s.fail(Erroneous, "no certificate supplied")
		}
		if c.Service == s.name {
			if err := s.Validate(c, client); err != nil {
				return nil, err
			}
			fs, err := s.rolefileFor(c.Rolefile)
			if err != nil {
				return nil, err
			}
			for _, role := range fs.roleMap.Names(c.Roles) {
				list = append(list, &held{
					rolefile: c.Rolefile,
					name:     role,
					args:     c.Args,
					crr:      c.CRR,
					hasCRR:   true,
				})
			}
			continue
		}
		roles, ext, err := s.validateForeign(c, client)
		if err != nil {
			return nil, err
		}
		for _, role := range roles {
			list = append(list, &held{
				service:  c.Service,
				rolefile: c.Rolefile,
				name:     role,
				args:     c.Args,
				crr:      ext,
				hasCRR:   true,
			})
		}
	}
	return list, nil
}

// heldKey indexes the working membership list by issuing service and
// role name — the two fields every candidate reference constrains.
type heldKey struct {
	service string
	name    string
}

// heldIndex buckets the membership list so candidate resolution visits
// only same-named memberships instead of scanning the whole list. Order
// within a bucket is list order, preserving the "first suitable one"
// semantics of §3.2.2.
type heldIndex map[heldKey][]*held

func newHeldIndex(list []*held) heldIndex {
	idx := make(heldIndex, len(list))
	for _, h := range list {
		idx.add(h)
	}
	return idx
}

func (idx heldIndex) add(h *held) {
	k := heldKey{service: h.service, name: h.name}
	idx[k] = append(idx[k], h)
}

// applyRules runs the precedence algorithm of §3.2.2: each statement is
// applied in turn; a resulting membership is appended to the tail of the
// list and may serve as a credential for later statements. Election
// rules are skipped unless this entry carries the delegation that
// enables them (election names that rule).
//
// Every rule, standard or election, runs through the rolefile's
// compiled Program on one pooled Machine.
func (s *Service) applyRules(st *rolefileState, req EnterRequest, list []*held, election *electionCtx) []*held {
	idx := newHeldIndex(list)
	m := st.machines.Get().(*rdl.Machine)
	defer st.machines.Put(m)
	for i := range st.prog.Rules {
		var ec *electionCtx
		if st.prog.Rules[i].Elector != nil {
			if election == nil || election.info.rule != i {
				continue
			}
			ec = election
		}
		if h := s.applyRule(st, i, m, req, idx, ec); h != nil {
			list = append(list, h)
			idx.add(h)
		}
	}
	return list
}

// applyRule attempts one rule against the list through its compiled
// execution plan: registers replace environment maps, literal arguments
// are pre-coerced constants, and the constraint runs as an instruction
// stream. An election rule (ec non-nil, §4.4) is the same rule form
// with a delegation attached, and differs in three places only: the
// registers start from the bindings saved when the delegation was
// issued, the head is matched against the delegation's arguments
// rather than the request's, and the delegation's record joins the
// parents when the rolefile stars the election or the elector.
func (s *Service) applyRule(st *rolefileState, ri int, m *rdl.Machine, req EnterRequest, idx heldIndex, ec *electionCtx) *held {
	cr := &st.prog.Rules[ri]
	m.Reset(ri)
	// Concrete head arguments, when there are any to hold the rule to:
	// the request's if this rule defines the requested role, the
	// delegation's for an election.
	var headArgs []value.Value
	if ec != nil {
		m.SeedEnv(ec.info.bindings)
		headArgs = ec.deleg.Args
	} else if cr.Head.Name == req.Role {
		headArgs = req.Args
	}
	// @host is the ambient request context (the paper's login service
	// "performs additional checks, such as on the identity of the
	// host", §3.4.3); it is the candidate's host, whatever the elector
	// side bound.
	m.BindHost(value.Str(req.Client.Host))
	if headArgs != nil && !m.MatchPlan(&cr.Head, headArgs) {
		return nil
	}
	var parents []credrec.Parent
	var revokers []revokerReq
	for ci := range cr.Cands {
		cand := &cr.Cands[ci]
		h := matchCandidate(m, cand, idx)
		if h == nil {
			return nil
		}
		if cand.Starred {
			ps, rs := h.starSupport()
			parents = append(parents, ps...)
			revokers = append(revokers, rs...)
		}
	}
	ok, err := m.RunConstraint(rdl.GroupOracleFunc(s.groupMember), s.opts.Funcs)
	if err != nil || !ok {
		return nil
	}
	parents = append(parents, s.condParents(m.Conds())...)
	rule := cr.Rule
	// The delegation itself: starred election (revocable) and starred
	// elector membership are both represented by the delegation record.
	if ec != nil && (rule.ElectStarred || cr.Elector.Starred) {
		parents = append(parents, credrec.Of(ec.deleg.DelegCRR))
	}

	args, ok := m.Instantiate(&cr.Head)
	if !ok {
		return nil // unbound head variable: rule not applicable
	}
	if rule.Revoker != nil {
		revokers = append(revokers, revokerReq{
			revokerRole: rule.Revoker.Name,
			instance:    instanceKey(rule.Head.Name, args),
		})
	}
	return &held{
		rolefile: st.id,
		name:     rule.Head.Name,
		args:     args,
		parents:  parents,
		revokers: revokers,
	}
}

// matchCandidate finds the first membership on the list satisfying a
// candidate role reference (the "first suitable one", §3.2.2), probing
// the (service, name) index instead of scanning the whole list.
// Argument unification runs on the register file, and a failed attempt
// rolls its tentative bindings back before the next entry.
func matchCandidate(m *rdl.Machine, ref *rdl.RefPlan, idx heldIndex) *held {
	for _, h := range idx[heldKey{service: ref.Service, name: ref.Name}] {
		if ref.Rolefile != "" && h.rolefile != ref.Rolefile {
			continue
		}
		if m.MatchPlan(ref, h.args) {
			return h
		}
	}
	return nil
}

func (s *Service) groupMember(member value.Value, group string) bool {
	return s.groups.IsMember(s.memberKey(member), group)
}

// memberKey names a value for group membership purposes. String and
// object values are their own key; other kinds marshal, memoized per
// service so repeated oracle probes on the same principal (every entry
// re-tests its groups) stop re-marshalling.
func (s *Service) memberKey(v value.Value) string {
	if v.T.Kind == value.KindString || v.T.Kind == value.KindObject {
		return v.S
	}
	if k, ok := s.memberKeys.Load(v); ok {
		return k.(string)
	}
	k := v.Marshal()
	s.memberKeys.Store(v, k)
	return k
}

// condParents converts starred constraint conditions into credential
// record parents: group tests wire to group membership records (§4.8.1),
// negated tests via negating edges. Other starred conditions were
// evaluated at entry time; their parameters cannot change (§3.2.3), so
// they contribute no dynamic parent.
func (s *Service) condParents(conds []rdl.MembershipCond) []credrec.Parent {
	var out []credrec.Parent
	for _, c := range conds {
		if !c.IsGroupTest {
			continue
		}
		ref := s.groups.CredentialFor(s.memberKey(c.Member), c.Group)
		if c.Neg {
			out = append(out, credrec.Not(ref))
		} else {
			out = append(out, credrec.Of(ref))
		}
	}
	return out
}

// selectAndIssue picks the first suitable membership from the list and
// issues the certificate, building the credential record graph (§4.7).
func (s *Service) selectAndIssue(st *rolefileState, req EnterRequest, list []*held) (*cert.RMC, error) {
	var chosen *held
	for _, h := range list {
		if h.service != "" || h.rolefile != st.id || h.name != req.Role {
			continue
		}
		if h.hasCRR {
			continue // a certificate the client already holds; issue afresh only from derivations
		}
		if req.Args != nil {
			if len(req.Args) != len(h.args) {
				continue
			}
			match := true
			for i := range req.Args {
				if !req.Args[i].Equal(h.args[i]) {
					match = false
					break
				}
			}
			if !match {
				continue
			}
		}
		chosen = h
		break
	}
	if chosen == nil {
		return nil, s.fail(Erroneous, "no rule grants %v entry to %s", req.Client, req.Role)
	}
	return s.issue(st, req.Client, chosen, list)
}

// issue mints the certificate for a chosen membership: it instantiates
// role-based-revocation records, creates the conjunction credential
// record (reusing a single parent where possible — the optimisation of
// §4.7), compounds other equal-argument memberships into the same
// certificate (§4.3), signs and returns.
func (s *Service) issue(st *rolefileState, client ids.ClientID, chosen *held, list []*held) (*cert.RMC, error) {
	roles := cert.RoleSet(0)
	bit, ok := st.roleMap.Bit(chosen.name)
	if !ok {
		return nil, fmt.Errorf("oasis: role %s missing from role map", chosen.name)
	}
	roles = roles.With(bit)

	parents := append([]credrec.Parent(nil), chosen.parents...)
	revokers := append([]revokerReq(nil), chosen.revokers...)
	if s.opts.ExtraParents != nil {
		parents = append(parents, s.opts.ExtraParents(st.id, chosen.name, chosen.args)...)
	}

	// Compound equal-argument memberships whose support adds nothing new.
	for _, h := range list {
		if h == chosen || h.service != "" || h.rolefile != st.id || h.hasCRR {
			continue
		}
		if !argsEqual(h.args, chosen.args) || len(h.revokers) > 0 {
			continue
		}
		if !parentSubset(h.parents, parents) {
			continue
		}
		if b, ok := st.roleMap.Bit(h.name); ok {
			roles = roles.With(b)
		}
	}

	st.mu.Lock()
	// Role-based revocation (§4.11): entry is refused for instances in
	// the revoked-forever database; otherwise each clause creates a
	// not-revoked fact and registers it for the revoker.
	for _, r := range revokers {
		if st.revoked[r.instance] {
			st.mu.Unlock()
			return nil, s.fail(Revoked, "role instance %s has been revoked", r.instance)
		}
	}
	for _, r := range revokers {
		if e, exists := st.revocable[r.instance]; exists && s.store.Valid(e.crr) {
			// Re-entry of a live revocable instance shares the record,
			// so one revocation kills every certificate for it.
			parents = append(parents, credrec.Of(e.crr))
			continue
		}
		ref := s.store.NewFact(credrec.True)
		st.revocable[r.instance] = roleRevEntry{revokerRole: r.revokerRole, crr: ref}
		parents = append(parents, credrec.Of(ref))
	}
	st.mu.Unlock()

	var crr credrec.Ref
	switch {
	case len(parents) == 0:
		// Unconditional membership: revocable only by exit.
		crr = s.store.NewFact(credrec.True)
	case len(parents) == 1 && !parents[0].Negated:
		// §4.7's optimisation: a single membership rule needs no new
		// conjunction record.
		crr = parents[0].Ref
	default:
		crr = s.store.NewDerived(credrec.OpAnd, parents...)
	}
	if err := s.store.MarkDirectUse(crr); err != nil {
		return nil, s.fail(Revoked, "support revoked during entry: %v", err)
	}
	if !s.store.Valid(crr) {
		return nil, s.fail(Revoked, "membership conditions no longer hold")
	}

	c := &cert.RMC{
		Service:  s.name,
		Rolefile: st.id,
		Roles:    roles,
		Args:     chosen.args,
		Client:   client,
		CRR:      crr,
	}
	if s.opts.CertTTL > 0 {
		c.Expiry = s.clk.Now().Add(s.opts.CertTTL)
	}
	c.Sign(s.signer)
	s.audit.issued.Add(1)
	return c, nil
}

func argsEqual(a, b []value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func parentSubset(sub, super []credrec.Parent) bool {
	for _, p := range sub {
		found := false
		for _, q := range super {
			if p == q {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
