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
