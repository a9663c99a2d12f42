package oasis

import (
	"testing"

	"oasis/internal/cert"
	"oasis/internal/credrec"
	"oasis/internal/value"
)

// TestDelegatedEntryGraphShape pins down §4.7's accounting: "In general
// one new credential record is required for each (revokable) delegation,
// and one for each entry to a role with multiple membership rules."
func TestDelegatedEntryGraphShape(t *testing.T) {
	h := newHarness(t)
	h.conf.Groups().AddMember("dm", "staff")

	chairClient := h.client("ely")
	chairLogin := h.logOn(t, chairClient, "jmb")

	// Entering Chair: single unstarred candidate, no constraint — the
	// membership is unconditional, so exactly one fact record (for exit
	// support) is created.
	base := h.conf.Store().Live()
	chair, err := h.conf.Enter(EnterRequest{
		Client: chairClient, Rolefile: "main", Role: "Chair",
		Creds: []*cert.RMC{chairLogin},
	})
	if err != nil {
		t.Fatal(err)
	}
	afterChair := h.conf.Store().Live()
	// One external record for the Login certificate + one fact record
	// for the unconditional membership.
	if got := afterChair - base; got != 2 {
		t.Fatalf("Chair entry created %d records, want 2 (external + membership fact)", got)
	}

	// Delegation: one new record for the revocable delegation (§4.7
	// rule 2).
	deleg, _, err := h.conf.Delegate(DelegateRequest{
		Client: chairClient, Rolefile: "main", Role: "Member",
		Args: []value.Value{uid("dm")}, ElectorCert: chair,
	})
	if err != nil {
		t.Fatal(err)
	}
	afterDeleg := h.conf.Store().Live()
	if got := afterDeleg - afterChair; got != 1 {
		t.Fatalf("delegation created %d records, want 1", got)
	}

	// Delegated entry with three membership rules (login*, <|*, group*):
	// one external record for the candidate's login, one group record,
	// and ONE conjunction — the figure 4.6 shape, with the "two records
	// combined into one" optimisation realised as a single AND.
	cand := h.client("cam")
	candLogin := h.logOn(t, cand, "dm")
	if _, err := h.conf.EnterDelegated(EnterRequest{
		Client: cand, Rolefile: "main", Role: "Member",
		Creds: []*cert.RMC{candLogin}, Delegation: deleg,
	}); err != nil {
		t.Fatal(err)
	}
	afterEntry := h.conf.Store().Live()
	if got := afterEntry - afterDeleg; got != 3 {
		t.Fatalf("delegated entry created %d records, want 3 (external + group + AND)", got)
	}

	// A second candidate elected to the same role with the same group:
	// the group record is shared, so only external + delegation + AND
	// appear per §4.8.1's "interesting credentials" table.
	h.conf.Groups().AddMember("ed", "staff")
	deleg2, _, err := h.conf.Delegate(DelegateRequest{
		Client: chairClient, Rolefile: "main", Role: "Member",
		Args: []value.Value{uid("dm")}, ElectorCert: chair,
	})
	if err != nil {
		t.Fatal(err)
	}
	cand2 := h.client("ox")
	cand2Login := h.logOn(t, cand2, "dm")
	pre := h.conf.Store().Live()
	if _, err := h.conf.EnterDelegated(EnterRequest{
		Client: cand2, Rolefile: "main", Role: "Member",
		Creds: []*cert.RMC{cand2Login}, Delegation: deleg2,
	}); err != nil {
		t.Fatal(err)
	}
	// deleg2 already added its record before `pre`; this entry adds the
	// new login external + AND but REUSES dm's group record.
	if got := h.conf.Store().Live() - pre; got != 2 {
		t.Fatalf("second entry created %d records, want 2 (group record shared)", got)
	}
}

// TestSingleMembershipRuleReusesParent is the §4.7 optimisation in
// isolation: a role whose only membership rule is one starred foreign
// candidate embeds that candidate's (external) record directly — no new
// conjunction record.
func TestSingleMembershipRuleReusesParent(t *testing.T) {
	h := newHarness(t)
	svc, _ := New("Thin", h.clk, h.net, Options{})
	if err := svc.AddRolefile("main", `R(u) <- Login.LoggedOn(u, h)*`); err != nil {
		t.Fatal(err)
	}
	c := h.client("ely")
	login := h.logOn(t, c, "dm")
	base := svc.Store().Live()
	rmc, err := svc.Enter(EnterRequest{Client: c, Rolefile: "main", Role: "R",
		Creds: []*cert.RMC{login}})
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.Store().Live() - base; got != 1 {
		t.Fatalf("entry created %d records, want 1 (external only; parent reused)", got)
	}
	// The certificate's CRR is the external record itself, named for the
	// login record it mirrors.
	var ext []credrec.Ref
	svc.Store().Externals(func(ref credrec.Ref, name string, _ bool) {
		if name == credrec.SurrogateName("Login", login.CRR) {
			ext = append(ext, ref)
		}
	})
	if len(ext) != 1 || ext[0] != rmc.CRR {
		t.Fatal("certificate does not embed the external record directly")
	}
}
