//go:build !race

package cert

import (
	"testing"

	"oasis/internal/value"
)

// Under the race detector sync.Pool drops buffers at random and the
// count below stops repeating, so this file is built without it.

// TestCanonicalFormAllocatesNothing: Verify serialises into pooled
// scratch, so a check costs the signer's allocations and none of the
// canonical form's, however many arguments the certificate carries.
func TestCanonicalFormAllocatesNothing(t *testing.T) {
	c := cacheTestRMC()
	c.Args = append(c.Args, value.Object("Login.userid", "dm"), value.Int(-3))
	s := &digestSigner{}
	c.Sign(s)
	if n := testing.AllocsPerRun(200, func() {
		if !c.Verify(s) {
			t.Error("rejected")
		}
	}); n != 0 {
		t.Errorf("Verify allocates %.0f times, want 0", n)
	}
}

// TestHMACVerifyAllocatesNothing: the HMAC signers compute a sum into
// the pooled state's scratch, so a check allocates nothing, under one
// secret or after a roll, when the certificate's secret is the older.
func TestHMACVerifyAllocatesNothing(t *testing.T) {
	hmacSigner := NewHMACSigner([]byte("k"), 16)
	signed := cacheTestRMC()
	signed.Sign(hmacSigner)
	rolling := NewRollingSigner([]byte("first"), 16, 2)
	rolled := cacheTestRMC()
	rolled.Sign(rolling)
	rolling.Roll([]byte("second"))
	for _, tc := range []struct {
		name string
		s    Signer
		c    *RMC
	}{
		{"HMACSigner", hmacSigner, signed},
		{"RollingSigner", rolling, rolled},
	} {
		if n := testing.AllocsPerRun(200, func() {
			if !tc.c.Verify(tc.s) {
				t.Errorf("%s rejected its own certificate", tc.name)
			}
		}); n != 0 {
			t.Errorf("%s.Verify allocates %.0f times, want 0", tc.name, n)
		}
	}
}
