package cert

import (
	"bytes"
	"crypto/sha256"
	"reflect"
	"sync"
	"testing"
	"time"

	"oasis/internal/credrec"
	"oasis/internal/ids"
	"oasis/internal/value"
)

func cacheTestRMC() *RMC {
	return &RMC{
		Service:  "Doc",
		Rolefile: "doc.rdl",
		Roles:    RoleSet(0b11),
		Args:     []value.Value{value.Str("alice"), value.Int(7)},
		Client:   ids.ClientID{Host: "h", ID: 4, BootTime: time.Unix(99, 0)},
		CRR:      credrec.Ref{Index: 2, Magic: 42},
		Expiry:   time.Unix(5000, 0),
	}
}

// freshCopy is what every inbound check presents: a struct with the
// same field values sharing no memory with the original, exactly what
// wire decoding produces.
func freshCopy(c *RMC) *RMC {
	return &RMC{
		Service:  c.Service,
		Rolefile: c.Rolefile,
		Roles:    c.Roles,
		Args:     append([]value.Value(nil), c.Args...),
		Client:   c.Client,
		CRR:      c.CRR,
		Expiry:   c.Expiry,
		Sig:      append([]byte(nil), c.Sig...),
	}
}

// TestCanonicalCacheInvalidatedByMutation is the per-field tamper table
// for RMC: every signed field (and the signature), changed in place on
// the verified certificate and on a fresh struct copy of it, must fail
// both the plain check and a VerifyCache warmed with the genuine
// certificate — rule 1, field mismatch ⇒ full check. (The name dates
// from the per-instance canonical cache, deleted in PR 22.)
func TestCanonicalCacheInvalidatedByMutation(t *testing.T) {
	s := NewHMACSigner([]byte("k"), 32)
	mutations := map[string]func(*RMC){
		"service":     func(c *RMC) { c.Service = "Evil" },
		"rolefile":    func(c *RMC) { c.Rolefile = "other.rdl" },
		"roles":       func(c *RMC) { c.Roles = RoleSet(0b111) },
		"args-swap":   func(c *RMC) { c.Args[0] = value.Str("mallory") },
		"args-alias":  func(c *RMC) { c.Args = append([]value.Value{}, value.Str("x")) },
		"client":      func(c *RMC) { c.Client.ID = 99 },
		"crr":         func(c *RMC) { c.CRR = credrec.Ref{Index: 9, Magic: 9} },
		"expiry":      func(c *RMC) { c.Expiry = c.Expiry.Add(time.Hour) },
		"sig-swapped": func(c *RMC) { c.Sig = []byte("forged") },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			for _, how := range []string{"in place", "copy"} {
				vc := NewVerifyCache()
				c := cacheTestRMC()
				c.Sign(s)
				if !c.Verify(s) || !vc.VerifyRMC(c, s) || !vc.VerifyRMC(c, s) {
					t.Fatal("fresh certificate does not verify")
				}
				forged := c
				if how == "copy" {
					forged = freshCopy(c)
				}
				mutate(forged)
				if forged.Verify(s) {
					t.Errorf("%s: tampered certificate verifies", how)
				}
				if vc.VerifyRMC(forged, s) {
					t.Errorf("%s: tampered certificate verifies through the warm cache", how)
				}
				if how == "copy" && !vc.VerifyRMC(c, s) {
					t.Error("genuine certificate rejected after the forgery attempt")
				}
			}
		})
	}
}

// TestDelegationCacheInvalidation is the per-field tamper table for
// Delegation, in place and on a struct copy. (There is no delegation
// cache left to invalidate; the name dates from the one PR 22 deleted.)
func TestDelegationCacheInvalidation(t *testing.T) {
	s := NewHMACSigner([]byte("k"), 32)
	mk := func() *Delegation {
		return &Delegation{
			Service:  "Doc",
			Rolefile: "doc.rdl",
			Role:     "courier",
			Args:     []value.Value{value.Str("bob")},
			Required: []RoleSpec{
				{Service: "Login", Rolefile: "login.rdl", Role: "user", Args: []value.Value{value.Str("bob")}},
			},
			DelegCRR: credrec.Ref{Index: 1, Magic: 5},
			Expiry:   time.Unix(7000, 0),
		}
	}
	mutations := map[string]func(*Delegation){
		"service":           func(d *Delegation) { d.Service = "Evil" },
		"rolefile":          func(d *Delegation) { d.Rolefile = "other.rdl" },
		"role":              func(d *Delegation) { d.Role = "admin" },
		"args":              func(d *Delegation) { d.Args[0] = value.Str("mallory") },
		"required-dropped":  func(d *Delegation) { d.Required = nil },
		"required-service":  func(d *Delegation) { d.Required[0].Service = "Evil" },
		"required-rolefile": func(d *Delegation) { d.Required[0].Rolefile = "other.rdl" },
		"required-role":     func(d *Delegation) { d.Required[0].Role = "guest" },
		"required-args":     func(d *Delegation) { d.Required[0].Args[0] = value.Str("mallory") },
		"delegcrr":          func(d *Delegation) { d.DelegCRR = credrec.Ref{Index: 9, Magic: 9} },
		"expiry":            func(d *Delegation) { d.Expiry = d.Expiry.Add(time.Hour) },
		"sig":               func(d *Delegation) { d.Sig = []byte("forged") },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			d := mk()
			d.Sign(s)
			if !d.Verify(s) || !d.Verify(s) {
				t.Fatal("fresh delegation does not verify twice")
			}
			// A copy sharing nothing with d: mk's fields plus d's signature.
			forged := mk()
			forged.Sig = append([]byte(nil), d.Sig...)
			if !forged.Verify(s) {
				t.Fatal("field-identical copy does not verify")
			}
			mutate(forged)
			if forged.Verify(s) {
				t.Error("tampered copy verifies")
			}
			mutate(d)
			if d.Verify(s) {
				t.Error("certificate tampered in place verifies")
			}
		})
	}
}

// TestCertificatesCarryNoHiddenState: a certificate is a plain value —
// everything it holds is a field a reader, an encoder and a tamper
// table can see.
func TestCertificatesCarryNoHiddenState(t *testing.T) {
	for _, v := range []any{RMC{}, Delegation{}, Revocation{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); !f.IsExported() {
				t.Errorf("%s has unexported field %s", typ, f.Name)
			}
		}
	}
}

func TestVerifyCacheCrossInstance(t *testing.T) {
	s := NewHMACSigner([]byte("k"), 32)
	vc := NewVerifyCache()
	orig := cacheTestRMC()
	orig.Sign(s)
	if !vc.VerifyRMC(orig, s) {
		t.Fatal("signed certificate does not verify")
	}
	// A field-identical fresh instance must verify (this is the hit the
	// cache exists for), and repeatedly.
	for i := 0; i < 3; i++ {
		if !vc.VerifyRMC(freshCopy(orig), s) {
			t.Fatalf("fresh instance %d rejected", i)
		}
	}
}

func TestVerifyCacheStolenSignature(t *testing.T) {
	s := NewHMACSigner([]byte("k"), 32)
	vc := NewVerifyCache()
	orig := cacheTestRMC()
	orig.Sign(s)
	if !vc.VerifyRMC(orig, s) || !vc.VerifyRMC(orig, s) || !vc.stored(orig) {
		t.Fatal("signed certificate does not verify, or is not stored on second sight")
	}
	// A forged body carrying the victim's valid signature must miss the
	// snapshot comparison and fail the real check.
	forged := freshCopy(orig)
	forged.Roles = RoleSet(0b1111)
	if vc.VerifyRMC(forged, s) {
		t.Fatal("forged body with stolen signature verified via cache")
	}
	// And the genuine certificate must still verify afterwards.
	if !vc.VerifyRMC(freshCopy(orig), s) {
		t.Fatal("genuine certificate rejected after forgery attempt")
	}
}

func TestVerifyCacheWrongSigner(t *testing.T) {
	s1 := NewHMACSigner([]byte("k1"), 32)
	s2 := NewHMACSigner([]byte("k2"), 32)
	vc := NewVerifyCache()
	orig := cacheTestRMC()
	orig.Sign(s1)
	if !vc.VerifyRMC(orig, s1) || !vc.VerifyRMC(orig, s1) || !vc.stored(orig) {
		t.Fatal("signed certificate does not verify, or is not stored on second sight")
	}
	if vc.VerifyRMC(freshCopy(orig), s2) {
		t.Fatal("cache answered for a different signer")
	}
	if !vc.VerifyRMC(freshCopy(orig), s1) {
		t.Fatal("signer 1 broken after signer 2 was refused")
	}
}

func TestVerifyCacheEpochExpiry(t *testing.T) {
	r := NewRollingSigner([]byte("gen0"), 32, 1)
	vc := NewVerifyCache()
	orig := cacheTestRMC()
	orig.Sign(r)
	if !vc.VerifyRMC(orig, r) || !vc.VerifyRMC(orig, r) || !vc.stored(orig) {
		t.Fatal("signed certificate does not verify, or is not stored on second sight")
	}
	r.Roll([]byte("gen1"))
	// keep=1 discarded the signing secret: the cached verdict must not
	// outlive the epoch it was verified under.
	if vc.VerifyRMC(freshCopy(orig), r) {
		t.Fatal("cached verdict survived a secret roll")
	}
}

func TestVerifyCacheRollWithinRetention(t *testing.T) {
	r := NewRollingSigner([]byte("gen0"), 32, 2)
	vc := NewVerifyCache()
	orig := cacheTestRMC()
	orig.Sign(r)
	if !vc.VerifyRMC(orig, r) {
		t.Fatal("signed certificate does not verify")
	}
	r.Roll([]byte("gen1"))
	if r.Epoch() == 0 {
		t.Fatal("Roll did not bump the epoch")
	}
	// The old secret is still retained: re-verifies via the real walk
	// and re-caches under the new epoch.
	if !vc.VerifyRMC(freshCopy(orig), r) {
		t.Fatal("certificate rejected while its secret is retained")
	}
	if !vc.VerifyRMC(freshCopy(orig), r) {
		t.Fatal("re-cached certificate rejected")
	}
	r.Roll([]byte("gen2"))
	if vc.VerifyRMC(freshCopy(orig), r) {
		t.Fatal("certificate outlived its secret's retention")
	}
}

func TestVerifyCacheConcurrent(t *testing.T) {
	r := NewRollingSigner([]byte("gen0"), 32, 3)
	vc := NewVerifyCache()
	orig := cacheTestRMC()
	orig.Sign(r)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if !vc.VerifyRMC(freshCopy(orig), r) {
					t.Error("concurrent cached verify failed")
					return
				}
			}
		}()
	}
	// Roll once mid-flight (keep=3 keeps the signing secret accepted).
	r.Roll([]byte("gen1"))
	wg.Wait()
}

// TestVerifyRMCHitIsReadOnly: validation writes nothing to the
// certificate it is shown. A hit leaves the certificate deeply equal to
// what it was and allocates nothing, and one *RMC shared by eight
// validating goroutines — the engine's read path — is race-free (`make
// race` runs this under the detector, through misses, a roll and hits).
func TestVerifyRMCHitIsReadOnly(t *testing.T) {
	r := NewRollingSigner([]byte("gen0"), 32, 3)
	vc := NewVerifyCache()
	c := cacheTestRMC()
	c.Sign(r)
	before := freshCopy(c)
	if !vc.VerifyRMC(c, r) || !vc.VerifyRMC(c, r) {
		t.Fatal("signed certificate does not verify")
	}
	if !reflect.DeepEqual(c, before) {
		t.Fatalf("validation changed the certificate:\n got %+v\nwant %+v", c, before)
	}
	if n := testing.AllocsPerRun(200, func() {
		if !vc.VerifyRMC(c, r) {
			t.Error("hit failed")
		}
	}); n != 0 {
		t.Errorf("hit allocates %.0f times, want 0", n)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if !vc.VerifyRMC(c, r) || !c.Verify(r) {
					t.Error("concurrent validation of a shared certificate failed")
					return
				}
			}
		}()
	}
	r.Roll([]byte("gen1"))
	wg.Wait()
	if !reflect.DeepEqual(c, before) {
		t.Fatalf("concurrent validation changed the certificate:\n got %+v\nwant %+v", c, before)
	}
}

// oneShardSigner prefixes every signature with a zero byte, so every
// certificate it signs lands in VerifyCache shard 0. It passes its
// inner signer's epoch through and counts full checks.
type oneShardSigner struct {
	inner    Signer
	verifies int
}

func (o *oneShardSigner) Sign(data []byte) []byte {
	return append([]byte{0}, o.inner.Sign(data)...)
}

func (o *oneShardSigner) Verify(data, sig []byte) bool {
	o.verifies++
	return len(sig) > 0 && sig[0] == 0 && o.inner.Verify(data, sig[1:])
}

func (o *oneShardSigner) Epoch() uint64 { return signerEpoch(o.inner) }

// numberedRMCs signs n distinct certificates under s.
func numberedRMCs(s Signer, n int) []*RMC {
	certs := make([]*RMC, n)
	for i := range certs {
		c := cacheTestRMC()
		c.CRR = credrec.Ref{Index: uint32(i + 1), Magic: 42}
		c.Sign(s)
		certs[i] = c
	}
	return certs
}

// stored reports whether vc keeps a verdict for c's signature.
func (vc *VerifyCache) stored(c *RMC) bool {
	_, ok := vc.shards[c.Sig[0]%verifyCacheShards].m[string(c.Sig)]
	return ok
}

// TestVerifyCacheEvictionReverifies: rule 3. Overfilling one shard
// evicts entries but costs only re-verification — every certificate,
// evicted or not, still verifies, and its forged twin still fails.
// Each certificate is presented twice, so the doorkeeper admits it.
func TestVerifyCacheEvictionReverifies(t *testing.T) {
	s := &oneShardSigner{inner: NewHMACSigner([]byte("k"), 16)}
	vc := NewVerifyCache()
	const n = verifyCacheShardCap + 64
	certs := numberedRMCs(s, n)
	for i, c := range certs {
		if !vc.VerifyRMC(c, s) || !vc.VerifyRMC(freshCopy(c), s) {
			t.Fatalf("certificate %d does not verify", i)
		}
	}
	sh := &vc.shards[0]
	if got := len(sh.m); got != verifyCacheShardCap {
		t.Fatalf("shard 0 holds %d entries, want the cap %d", got, verifyCacheShardCap)
	}
	evicted := 0
	for _, c := range certs {
		if !vc.stored(c) {
			evicted++
		}
	}
	if evicted != n-verifyCacheShardCap {
		t.Fatalf("%d certificates evicted, want %d", evicted, n-verifyCacheShardCap)
	}
	for i, c := range certs {
		forged := freshCopy(c)
		forged.Roles = RoleSet(0b1111)
		if vc.VerifyRMC(forged, s) {
			t.Fatalf("forged twin of certificate %d verified", i)
		}
		if !vc.VerifyRMC(freshCopy(c), s) {
			t.Fatalf("certificate %d rejected after eviction pressure", i)
		}
	}
}

// TestVerifyCacheReinsertEvictsNothing: re-verifying a stored
// certificate — here after an epoch bump — replaces its own entry and
// evicts no other, even in a full shard.
func TestVerifyCacheReinsertEvictsNothing(t *testing.T) {
	s := &oneShardSigner{inner: NewRollingSigner([]byte("gen0"), 16, 2)}
	vc := NewVerifyCache()
	certs := numberedRMCs(s, verifyCacheShardCap)
	for _, c := range certs {
		vc.VerifyRMC(c, s)
		vc.VerifyRMC(c, s)
	}
	sh := &vc.shards[0]
	if len(sh.m) != verifyCacheShardCap {
		t.Fatalf("shard 0 holds %d entries, want the cap %d", len(sh.m), verifyCacheShardCap)
	}
	s.inner.(*RollingSigner).Roll([]byte("gen1"))
	for i, c := range certs {
		if !vc.VerifyRMC(freshCopy(c), s) {
			t.Fatalf("certificate %d rejected while its secret is retained", i)
		}
	}
	if len(sh.m) != verifyCacheShardCap {
		t.Fatalf("shard 0 holds %d entries after re-verification, want %d", len(sh.m), verifyCacheShardCap)
	}
	for i, c := range certs {
		if !vc.stored(c) {
			t.Fatalf("certificate %d lost its entry to another's re-verification", i)
		}
	}
	before := s.verifies
	for _, c := range certs {
		vc.VerifyRMC(freshCopy(c), s)
	}
	if n := s.verifies - before; n != 0 {
		t.Fatalf("%d full checks on certificates re-stored under the new epoch, want 0", n)
	}
}

// TestVerifyCacheAdmitsOnSecondSight: the doorkeeper. A certificate's
// first verification is a full check that stores nothing; its second
// stores the verdict; a forgery is refused on every sight; a stream of
// one-shot certificates leaves next to nothing behind; and a clearing of
// the doorkeeper's bitset forgets what it had seen.
func TestVerifyCacheAdmitsOnSecondSight(t *testing.T) {
	t.Run("second sight stores", func(t *testing.T) {
		s := &oneShardSigner{inner: NewHMACSigner([]byte("k"), 16)}
		vc := NewVerifyCache()
		c := numberedRMCs(s, 1)[0]
		for sight, want := range []struct {
			verifies int
			stored   bool
		}{{1, false}, {1, true}, {0, true}} {
			before := s.verifies
			if !vc.VerifyRMC(freshCopy(c), s) {
				t.Fatalf("sight %d: rejected", sight+1)
			}
			if got := s.verifies - before; got != want.verifies || vc.stored(c) != want.stored {
				t.Fatalf("sight %d: %d full checks, stored %v; want %d, %v",
					sight+1, got, vc.stored(c), want.verifies, want.stored)
			}
		}
	})
	t.Run("forged twin of a certificate seen once", func(t *testing.T) {
		s := NewHMACSigner([]byte("k"), 16)
		vc := NewVerifyCache()
		c := cacheTestRMC()
		c.Sign(s)
		if !vc.VerifyRMC(c, s) || vc.stored(c) {
			t.Fatal("first sight: rejected, or stored")
		}
		forged := freshCopy(c)
		forged.Roles = RoleSet(0b1111)
		for i := 0; i < 3; i++ {
			if vc.VerifyRMC(freshCopy(forged), s) {
				t.Fatalf("forged twin verified on sight %d", i+1)
			}
		}
		if !vc.VerifyRMC(freshCopy(c), s) || !vc.stored(c) {
			t.Fatal("second sight of the genuine certificate: rejected, or not stored")
		}
		if vc.VerifyRMC(freshCopy(forged), s) {
			t.Fatal("forged twin verified against the stored verdict")
		}
	})
	t.Run("one-shot stream", func(t *testing.T) {
		s := NewHMACSigner([]byte("k"), 16)
		vc := NewVerifyCache()
		for i, c := range numberedRMCs(s, 4*verifyCacheShardCap) {
			if !vc.VerifyRMC(c, s) {
				t.Fatalf("certificate %d rejected", i)
			}
		}
		n := 0
		for i := range vc.shards {
			n += len(vc.shards[i].m)
		}
		if n > verifyCacheShardCap/20 {
			t.Fatalf("%d one-shot certificates stored, want at most 5%% of the cap (%d)", n, verifyCacheShardCap/20)
		}
	})
	t.Run("reset forgets", func(t *testing.T) {
		s := &oneShardSigner{inner: NewHMACSigner([]byte("k"), 16)}
		vc := NewVerifyCache()
		certs := numberedRMCs(s, 2*verifyCacheShardCap)
		x, others := certs[0], certs[1:]
		vc.VerifyRMC(x, s)
		// Present one-shot certificates until the shard clears its
		// bitset: its mark count restarts at the one that cleared it.
		sh := &vc.shards[0]
		for i := 0; ; i++ {
			if i == len(others) {
				t.Fatal("the doorkeeper never cleared its bitset")
			}
			vc.VerifyRMC(others[i], s)
			if sh.marks == 1 {
				break
			}
		}
		if !vc.VerifyRMC(freshCopy(x), s) || vc.stored(x) {
			t.Fatal("first sight after the reset: rejected, or stored")
		}
		if !vc.VerifyRMC(freshCopy(x), s) || !vc.stored(x) {
			t.Fatal("second sight after the reset: rejected, or not stored")
		}
	})
}

// digestSigner signs with a truncated SHA-256 of the data. It keeps no
// pooled state, so its allocation count is the same on every call, even
// under the race detector, where sync.Pool drops items at random.
type digestSigner struct{}

func (*digestSigner) Sign(data []byte) []byte {
	d := sha256.Sum256(data)
	return d[:16]
}

func (*digestSigner) Verify(data, sig []byte) bool {
	d := sha256.Sum256(data)
	return bytes.Equal(d[:16], sig)
}

// TestVerifyCacheFirstSightAllocs: a certificate the cache turns away
// costs what a plain Verify costs, and nothing for the doorkeeper.
func TestVerifyCacheFirstSightAllocs(t *testing.T) {
	const runs = 100
	s := &digestSigner{}
	vc := NewVerifyCache()
	certs := numberedRMCs(s, runs+1) // AllocsPerRun calls f once more to warm up
	i := 0
	first := testing.AllocsPerRun(runs, func() {
		if !vc.VerifyRMC(certs[i], s) {
			t.Error("first sight rejected")
		}
		i++
	})
	plain := testing.AllocsPerRun(runs, func() {
		if !certs[0].Verify(s) {
			t.Error("plain check rejected")
		}
	})
	if first > plain {
		t.Errorf("first sight allocates %.0f times, a plain Verify %.0f", first, plain)
	}
}
