package cert

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"oasis/internal/credrec"
	"oasis/internal/ids"
	"oasis/internal/value"
)

// The string-building rendering of the canonical forms — strings.Builder,
// fmt for the client identifier, one string per argument — which the
// append forms replaced. It is the reference the append forms must
// match byte for byte: every signature already issued is over it.

func refMarshal(v value.Value) string {
	switch v.T.Kind {
	case value.KindInt:
		return "i:" + strconv.FormatInt(v.I, 10)
	case value.KindString:
		return "s:" + strconv.Quote(v.S)
	case value.KindSet:
		return "b:" + v.T.Universe + ":" + strconv.FormatUint(v.Set, 16)
	case value.KindObject:
		return "o:" + v.T.Name + ":" + v.S
	default:
		return "?"
	}
}

func refArgs(args []value.Value) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = refMarshal(a)
	}
	return strings.Join(parts, ",")
}

func refClient(c ids.ClientID) string {
	return fmt.Sprintf("%s/%d@%d", c.Host, c.ID, c.BootTime.Unix())
}

func refRMC(c *RMC) []byte {
	var b strings.Builder
	b.WriteString("rmc|")
	b.WriteString(c.Service)
	b.WriteByte('|')
	b.WriteString(c.Rolefile)
	b.WriteByte('|')
	b.WriteString(strconv.FormatUint(uint64(c.Roles), 16))
	b.WriteByte('|')
	b.WriteString(refArgs(c.Args))
	b.WriteByte('|')
	b.WriteString(refClient(c.Client))
	b.WriteByte('|')
	b.WriteString(strconv.FormatUint(c.CRR.Uint64(), 16))
	b.WriteByte('|')
	if !c.Expiry.IsZero() {
		b.WriteString(strconv.FormatInt(c.Expiry.UnixNano(), 10))
	}
	return []byte(b.String())
}

func refSpec(r RoleSpec) string {
	return r.Service + "." + r.Rolefile + "." + r.Role + "(" + refArgs(r.Args) + ")"
}

func refDelegation(d *Delegation) []byte {
	var b strings.Builder
	b.WriteString("deleg|")
	b.WriteString(d.Service)
	b.WriteByte('|')
	b.WriteString(d.Rolefile)
	b.WriteByte('|')
	b.WriteString(d.Role)
	b.WriteByte('|')
	b.WriteString(refArgs(d.Args))
	b.WriteByte('|')
	for _, r := range d.Required {
		b.WriteString(refSpec(r))
		b.WriteByte(';')
	}
	b.WriteByte('|')
	b.WriteString(strconv.FormatUint(d.DelegCRR.Uint64(), 16))
	b.WriteByte('|')
	if !d.Expiry.IsZero() {
		b.WriteString(strconv.FormatInt(d.Expiry.UnixNano(), 10))
	}
	return []byte(b.String())
}

func refRevocation(r *Revocation) []byte {
	return []byte("revoke|" + r.Service + "|" +
		strconv.FormatUint(r.DelegatorCRR.Uint64(), 16) + "|" +
		strconv.FormatUint(r.TargetCRR.Uint64(), 16))
}

// canonCorpus generates the fields of the differential corpus: empty,
// separator-laden, quoted, non-ASCII and invalid-UTF-8 strings; every
// value kind and an invalid one; extreme integers; zero, pre-epoch and
// far-future instants.
type canonCorpus struct{ rng *rand.Rand }

func (g canonCorpus) str() string {
	pieces := []string{"", "a", "Login", "|", ";", ".", "(", ")", ",", ":", "/", "@",
		`"`, `\`, "\n", "é", "日本", "\xff", "\x00", " ", "main.rdl"}
	var b strings.Builder
	for n := g.rng.Intn(5); n > 0; n-- {
		b.WriteString(pieces[g.rng.Intn(len(pieces))])
	}
	return b.String()
}

func (g canonCorpus) int64() int64 {
	ints := []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64, g.rng.Int63(), -g.rng.Int63()}
	return ints[g.rng.Intn(len(ints))]
}

func (g canonCorpus) time() time.Time {
	times := []time.Time{{}, time.Unix(0, 0), time.Unix(99, 0), time.Unix(-5, 7),
		time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC), time.Date(2200, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Unix(g.rng.Int63n(1<<33), g.rng.Int63n(1e9))}
	return times[g.rng.Intn(len(times))]
}

func (g canonCorpus) args() []value.Value {
	if g.rng.Intn(6) == 0 {
		return nil
	}
	args := make([]value.Value, g.rng.Intn(4))
	for i := range args {
		args[i] = value.Value{
			T: value.Type{Kind: value.Kind(g.rng.Intn(6)), Universe: g.str(), Name: g.str()},
			I: g.int64(), S: g.str(), Set: g.rng.Uint64() >> uint(g.rng.Intn(64)),
		}
	}
	return args
}

func (g canonCorpus) ref() credrec.Ref {
	return credrec.Ref{Index: g.rng.Uint32() >> uint(g.rng.Intn(32)), Magic: g.rng.Uint32() >> uint(g.rng.Intn(32))}
}

// TestCanonicalFormsMatchReference: over a generated corpus, every
// certificate's canonical form — RMC, delegation with its required
// role specs, revocation — is byte-identical to the reference
// rendering, appended after a dirty prefix, and a signature over one
// verifies over the other.
func TestCanonicalFormsMatchReference(t *testing.T) {
	g := canonCorpus{rng: rand.New(rand.NewSource(30))}
	s := NewHMACSigner([]byte("canon"), 16)
	prefix := []byte("dirty")
	check := func(what string, x signed, want []byte) {
		t.Helper()
		got := x.appendCanonical(append([]byte(nil), prefix...))
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("%s:\n append    %q\n reference %q", what, got[len(prefix):], want)
		}
		if !withCanonical(x, func(data []byte) bool { return s.Verify(data, s.Sign(want)) }) {
			t.Fatalf("%s: a signature over the reference does not verify", what)
		}
	}
	for i := 0; i < 3000; i++ {
		c := &RMC{
			Service: g.str(), Rolefile: g.str(), Roles: RoleSet(g.rng.Uint64() >> uint(g.rng.Intn(64))),
			Args:   g.args(),
			Client: ids.ClientID{Host: g.str(), ID: g.rng.Uint64() >> uint(g.rng.Intn(64)), BootTime: g.time()},
			CRR:    g.ref(), Expiry: g.time(),
		}
		check("RMC", c, refRMC(c))
		if got := c.SignedBytes(); !bytes.Equal(got, refRMC(c)) {
			t.Fatalf("SignedBytes %q, reference %q", got, refRMC(c))
		}
		if got, want := c.Client.String(), refClient(c.Client); got != want {
			t.Fatalf("ClientID.String %q, reference %q", got, want)
		}

		d := &Delegation{Service: g.str(), Rolefile: g.str(), Role: g.str(), Args: g.args(),
			DelegCRR: g.ref(), Expiry: g.time()}
		for n := g.rng.Intn(4); n > 0; n-- {
			d.Required = append(d.Required, RoleSpec{Service: g.str(), Rolefile: g.str(), Role: g.str(), Args: g.args()})
		}
		check("Delegation", d, refDelegation(d))
		for _, r := range d.Required {
			if got, want := r.String(), refSpec(r); got != want {
				t.Fatalf("RoleSpec %q, reference %q", got, want)
			}
		}

		r := &Revocation{Service: g.str(), DelegatorCRR: g.ref(), TargetCRR: g.ref()}
		check("Revocation", r, refRevocation(r))
	}
}
