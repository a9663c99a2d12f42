package cert

import (
	"testing"
	"time"

	"oasis/internal/credrec"
	"oasis/internal/ids"
	"oasis/internal/value"
)

var (
	testClient  = ids.ClientID{Host: "ely", ID: 7, BootTime: time.Unix(100, 0)}
	otherClient = ids.ClientID{Host: "cam", ID: 9, BootTime: time.Unix(100, 0)}
)

func testRMC() *RMC {
	return &RMC{
		Service:  "Conf",
		Rolefile: "main",
		Roles:    RoleSet(0).With(1),
		Args:     []value.Value{value.Object("Login.userid", "dm")},
		Client:   testClient,
		CRR:      credrec.Ref{Index: 3, Magic: 5},
	}
}

func TestRMCSignVerify(t *testing.T) {
	s := NewHMACSigner([]byte("secret"), 16)
	c := testRMC()
	c.Sign(s)
	if !c.Verify(s) {
		t.Fatal("signed certificate does not verify")
	}
}

func TestRMCTamperDetected(t *testing.T) {
	// Figure 4.1(b): changing any signed field invalidates the signature.
	s := NewHMACSigner([]byte("secret"), 16)
	mutations := []func(*RMC){
		func(c *RMC) { c.Service = "Other" },
		func(c *RMC) { c.Rolefile = "other" },
		func(c *RMC) { c.Roles = c.Roles.With(3) },
		func(c *RMC) { c.Args[0] = value.Object("Login.userid", "attacker") },
		func(c *RMC) { c.Client = otherClient }, // theft
		func(c *RMC) { c.CRR = credrec.Ref{Index: 99, Magic: 1} },
		func(c *RMC) { c.Expiry = time.Unix(999, 0) },
	}
	for i, mut := range mutations {
		c := testRMC()
		c.Sign(s)
		mut(c)
		if c.Verify(s) {
			t.Errorf("mutation %d not detected", i)
		}
	}
}

func TestRMCWrongServiceSecret(t *testing.T) {
	// Certificates may only be validated by the issuing instance
	// (figure 4.1): a different secret rejects them.
	c := testRMC()
	c.Sign(NewHMACSigner([]byte("conf-secret"), 16))
	if c.Verify(NewHMACSigner([]byte("file-secret"), 16)) {
		t.Fatal("certificate verified under another service's secret")
	}
}

func TestSignatureLengthTradeoff(t *testing.T) {
	// §4.2: services choose signature length.
	short := NewHMACSigner([]byte("s"), 4)
	long := NewHMACSigner([]byte("s"), 32)
	c := testRMC()
	c.Sign(short)
	if len(c.Sig) != 4 {
		t.Fatalf("short sig length = %d", len(c.Sig))
	}
	if !c.Verify(short) {
		t.Fatal("short signature does not verify")
	}
	c.Sign(long)
	if len(c.Sig) != 32 {
		t.Fatalf("long sig length = %d", len(c.Sig))
	}
	// Clamping.
	if got := len(NewHMACSigner([]byte("s"), 0).Sign([]byte("x"))); got != 4 {
		t.Fatalf("clamped short = %d", got)
	}
	if got := len(NewHMACSigner([]byte("s"), 99).Sign([]byte("x"))); got != 32 {
		t.Fatalf("clamped long = %d", got)
	}
}

func TestRollingSigner(t *testing.T) {
	// §5.5.1: certificates signed with older retained secrets verify;
	// beyond the retention window they are dead.
	r := NewRollingSigner([]byte("gen0"), 16, 3)
	c := testRMC()
	c.Sign(r)

	r.Roll([]byte("gen1"))
	r.Roll([]byte("gen2"))
	if !c.Verify(r) {
		t.Fatal("certificate from 2 generations ago rejected")
	}
	if r.Generations() != 3 {
		t.Fatalf("generations = %d", r.Generations())
	}
	r.Roll([]byte("gen3")) // evicts gen0
	if c.Verify(r) {
		t.Fatal("certificate beyond retention window accepted")
	}
	// New certificates sign with the newest secret.
	c2 := testRMC()
	c2.Sign(r)
	if !c2.Verify(r) {
		t.Fatal("fresh certificate rejected")
	}
}

func TestRecordSigner(t *testing.T) {
	r := NewRecordSigner()
	c := testRMC()
	c.Sign(r)
	if !c.Verify(r) {
		t.Fatal("recorded certificate rejected")
	}
	c.Client = otherClient
	if c.Verify(r) {
		t.Fatal("altered certificate accepted by record signer")
	}
}

func TestDelegationCertificate(t *testing.T) {
	s := NewHMACSigner([]byte("secret"), 16)
	d := &Delegation{
		Service:  "Conf",
		Rolefile: "main",
		Role:     "Member",
		Args:     []value.Value{value.Object("Login.userid", "jim")},
		Required: []RoleSpec{{
			Service: "Login", Role: "LoggedOn",
			Args: []value.Value{value.Object("Login.userid", "jim")},
		}},
		DelegCRR: credrec.Ref{Index: 12, Magic: 1},
		Expiry:   time.Unix(5000, 0),
	}
	d.Sign(s)
	if !d.Verify(s) {
		t.Fatal("delegation does not verify")
	}
	d.Required[0].Args[0] = value.Object("Login.userid", "mallory")
	if d.Verify(s) {
		t.Fatal("tampered required-roles accepted")
	}
}

func TestRevocationCertificate(t *testing.T) {
	s := NewHMACSigner([]byte("secret"), 16)
	r := &Revocation{
		Service:      "Conf",
		DelegatorCRR: credrec.Ref{Index: 1, Magic: 1},
		TargetCRR:    credrec.Ref{Index: 12, Magic: 1},
	}
	r.Sign(s)
	if !r.Verify(s) {
		t.Fatal("revocation does not verify")
	}
	r.TargetCRR = credrec.Ref{Index: 13, Magic: 1}
	if r.Verify(s) {
		t.Fatal("tampered revocation accepted")
	}
}

func TestRoleMap(t *testing.T) {
	m, err := NewRoleMap("Chair", "Member", "Candidate")
	if err != nil {
		t.Fatal(err)
	}
	set, err := m.Set("Chair", "Member")
	if err != nil {
		t.Fatal(err)
	}
	names := m.AppendNames(nil, set)
	if len(names) != 2 || names[0] != "Chair" || names[1] != "Member" {
		t.Fatalf("Names = %v", names)
	}
	set, _ = m.Set("Member", "Candidate")
	if names := m.AppendNames(names[:0], set); len(names) != 2 || names[0] != "Candidate" || names[1] != "Member" {
		t.Fatalf("Names = %v, want them sorted by name", names)
	}
	if b, ok := m.Bit("Candidate"); !ok || b != 2 {
		t.Fatalf("Bit = %d, %v", b, ok)
	}
	if _, ok := m.Bit("Nope"); ok {
		t.Fatal("unknown role has a bit")
	}
	if _, err := m.Set("Nope"); err == nil {
		t.Fatal("set of unknown role succeeded")
	}
}

func TestRoleMapErrors(t *testing.T) {
	if _, err := NewRoleMap("A", "A"); err == nil {
		t.Fatal("duplicate role accepted")
	}
	many := make([]string, 65)
	for i := range many {
		many[i] = string(rune('A'+i%26)) + string(rune('0'+i/26))
	}
	if _, err := NewRoleMap(many...); err == nil {
		t.Fatal("65 roles accepted")
	}
}

func TestCompoundCertificateBits(t *testing.T) {
	// §4.3: a Chair is also a Member; one certificate carries both.
	m, _ := NewRoleMap("Chair", "Member")
	set, _ := m.Set("Chair", "Member")
	c := testRMC()
	c.Roles = set
	chairBit, _ := m.Bit("Chair")
	memberBit, _ := m.Bit("Member")
	if !c.Roles.Has(chairBit) || !c.Roles.Has(memberBit) {
		t.Fatal("compound certificate missing roles")
	}
}
