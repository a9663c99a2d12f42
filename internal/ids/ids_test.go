package ids

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

var boot = time.Date(1996, 3, 1, 9, 0, 0, 0, time.UTC)

func TestClientIDUniqueness(t *testing.T) {
	h := NewHostAuthority("ely", boot)
	a := h.NewDomain()
	b := h.NewDomain()
	if a == b {
		t.Fatalf("two domains got the same identifier %v", a)
	}
	if a.Host != "ely" || b.Host != "ely" {
		t.Fatalf("host not recorded: %v %v", a, b)
	}
}

func TestClientIDUniqueAcrossBoots(t *testing.T) {
	h1 := NewHostAuthority("ely", boot)
	h2 := NewHostAuthority("ely", boot.Add(time.Hour)) // rebooted host
	a := h1.NewDomain()
	b := h2.NewDomain()
	if a == b {
		t.Fatal("identifiers collide across boots")
	}
}

func TestClientIDString(t *testing.T) {
	c := ClientID{Host: "ely", ID: 7, BootTime: time.Unix(100, 0)}
	if got, want := c.String(), "ely/7@100"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestClientIDStringMatchesFmt: the fmt-free rendering is
// fmt.Sprintf("%s/%d@%d")'s byte for byte, for hosts longer than its
// stack buffer, non-ASCII hosts, extreme ids and boot times before the
// epoch or unset.
func TestClientIDStringMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	hosts := []string{"", "ely", "é/@", "\xff\x00", strings.Repeat("h", 63), strings.Repeat("h", 200)}
	boots := []time.Time{{}, time.Unix(0, 0), time.Unix(-1, 5), boot, time.Unix(math.MaxInt32, 0)}
	for i := 0; i < 500; i++ {
		c := ClientID{
			Host:     hosts[rng.Intn(len(hosts))] + strings.Repeat("x", rng.Intn(80)),
			ID:       rng.Uint64() >> uint(rng.Intn(64)),
			BootTime: boots[rng.Intn(len(boots))],
		}
		if got, want := c.String(), fmt.Sprintf("%s/%d@%d", c.Host, c.ID, c.BootTime.Unix()); got != want {
			t.Fatalf("String %q, fmt %q", got, want)
		}
		if got := string(c.AppendTo([]byte("p"))); got != "p"+c.String() {
			t.Fatalf("AppendTo after a prefix: %q", got)
		}
	}
}

func TestIsZero(t *testing.T) {
	var c ClientID
	if !c.IsZero() {
		t.Fatal("zero ClientID not reported zero")
	}
	if (ClientID{Host: "x"}).IsZero() {
		t.Fatal("non-zero ClientID reported zero")
	}
}

func TestVCIDelegationControlsUse(t *testing.T) {
	h := NewHostAuthority("ely", boot)
	parent := h.NewDomain()
	child := h.NewDomain()

	v, err := h.NewVCI(parent)
	if err != nil {
		t.Fatal(err)
	}
	if !h.MayUse(v, parent) {
		t.Fatal("creator cannot use own VCI")
	}
	if h.MayUse(v, child) {
		t.Fatal("child can use VCI before delegation")
	}
	if err := h.Delegate(v, parent, child); err != nil {
		t.Fatal(err)
	}
	if !h.MayUse(v, child) {
		t.Fatal("child cannot use VCI after delegation")
	}
}

func TestVCIStolenCredentialUseless(t *testing.T) {
	// Section 2.8.1: a child that "steals" credentials bound to a VCI it
	// was not given still cannot use them, because MayUse fails.
	h := NewHostAuthority("ely", boot)
	parent := h.NewDomain()
	thief := h.NewDomain()
	v, err := h.NewVCI(parent)
	if err != nil {
		t.Fatal(err)
	}
	if h.MayUse(v, thief) {
		t.Fatal("thief may use undelegate VCI")
	}
	// And the thief cannot delegate it to itself.
	if err := h.Delegate(v, thief, thief); err == nil {
		t.Fatal("non-holder allowed to delegate VCI")
	}
}

func TestVCIRevoke(t *testing.T) {
	h := NewHostAuthority("ely", boot)
	parent := h.NewDomain()
	child := h.NewDomain()
	v, _ := h.NewVCI(parent)
	if err := h.Delegate(v, parent, child); err != nil {
		t.Fatal(err)
	}
	if err := h.Revoke(v, parent, child); err != nil {
		t.Fatal(err)
	}
	if h.MayUse(v, child) {
		t.Fatal("child may use VCI after revocation")
	}
	if !h.MayUse(v, parent) {
		t.Fatal("parent lost VCI when revoking child")
	}
}

func TestVCICrossHostRejected(t *testing.T) {
	h1 := NewHostAuthority("ely", boot)
	h2 := NewHostAuthority("cam", boot)
	d1 := h1.NewDomain()
	d2 := h2.NewDomain()
	if _, err := h1.NewVCI(d2); err == nil {
		t.Fatal("foreign domain allocated a VCI")
	}
	v, _ := h1.NewVCI(d1)
	if h1.MayUse(v, d2) {
		t.Fatal("foreign domain may use VCI")
	}
	if err := h1.Delegate(v, d1, d2); err == nil {
		t.Fatal("cross-host delegation allowed")
	}
}

func TestVCIUnknownErrors(t *testing.T) {
	h := NewHostAuthority("ely", boot)
	d := h.NewDomain()
	bogus := VCI{Host: "ely", N: 999}
	if err := h.Delegate(bogus, d, d); err == nil {
		t.Fatal("delegating unknown VCI succeeded")
	}
	if err := h.Revoke(bogus, d, d); err == nil {
		t.Fatal("revoking unknown VCI succeeded")
	}
}
