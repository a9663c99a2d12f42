package cert

import (
	"slices"
	"sync"
)

// EpochSigner is a Signer whose accepted-secret set can change over
// time (the rolling table of §5.5.1). Epoch increments whenever the
// set changes; VerifyCache keys on it so nothing verified under an old
// table is trusted under a new one.
type EpochSigner interface {
	Signer
	Epoch() uint64 // bumped on every accepted-secret-set change
}

// signerEpoch folds non-epoch signers into epoch 0: a fixed secret
// never changes, and RecordSigner's issue record only ever grows, so
// verdicts under either never need expiring.
func signerEpoch(s Signer) uint64 {
	if es, ok := s.(EpochSigner); ok {
		return es.Epoch()
	}
	return 0
}

// VerifyCache is the one place a signature verdict is remembered.
// Certificates are plain values — every request decodes a fresh one —
// so the cache is keyed by the signature bytes and stores a snapshot
// of the fields that signature was verified over. A hit skips both the
// canonical serialisation and the signature check (for a rolling
// signer, a walk over every retained secret); it reads the presented
// certificate and writes nothing. Three rules keep it sound:
//
//  1. Field mismatch ⇒ full check. A hit requires the presented
//     certificate to equal the snapshot field for field, so a forged
//     body paired with a stolen valid signature misses. Signature
//     collisions (possible with truncated signatures) only cause churn.
//  2. Epoch bump ⇒ full check. An entry answers only for the signer and
//     secret-table epoch it was verified under, so rolling the table
//     (§5.5.1) expires every verdict at once.
//  3. Shard full ⇒ evict one. Shards (by first signature byte) are
//     bounded; an evicted certificate costs one re-verification.
//
// Only positive verdicts are stored. Signers are compared by interface
// identity, so implementations must be comparable — in practice,
// pointers (every implementation in this package is).
const (
	verifyCacheShards   = 16
	verifyCacheShardCap = 1024
)

// verifiedRMC is one remembered verdict: the signed fields (Args
// copied, so a caller mutating its slice cannot edit the snapshot; Sig
// is the map key) and what they were verified under.
type verifiedRMC struct {
	fields RMC
	signer Signer
	epoch  uint64
}

type verifyCacheShard struct {
	mu sync.RWMutex
	m  map[string]*verifiedRMC
}

// VerifyCache is safe for concurrent use by multiple goroutines.
type VerifyCache struct {
	shards [verifyCacheShards]verifyCacheShard
}

func NewVerifyCache() *VerifyCache {
	vc := &VerifyCache{}
	for i := range vc.shards {
		vc.shards[i].m = make(map[string]*verifiedRMC)
	}
	return vc
}

// VerifyRMC checks c's signature under s, answering from the cache
// when c is field-identical to a certificate already verified under s
// at its current epoch.
func (vc *VerifyCache) VerifyRMC(c *RMC, s Signer) bool {
	if len(c.Sig) == 0 {
		return c.Verify(s)
	}
	sh := &vc.shards[c.Sig[0]%verifyCacheShards]
	epoch := signerEpoch(s)
	sh.mu.RLock()
	v := sh.m[string(c.Sig)]
	sh.mu.RUnlock()
	if v != nil && v.signer == s && v.epoch == epoch && sameSignedFields(&v.fields, c) {
		return true
	}
	if !c.Verify(s) {
		return false
	}
	v = &verifiedRMC{fields: *c, signer: s, epoch: epoch}
	v.fields.Args = slices.Clone(c.Args)
	v.fields.Sig = nil
	sh.mu.Lock()
	if len(sh.m) >= verifyCacheShardCap {
		for k := range sh.m {
			delete(sh.m, k)
			break
		}
	}
	sh.m[string(c.Sig)] = v
	sh.mu.Unlock()
	return true
}

// sameSignedFields compares every field buildCanonical serialises;
// value.Value and ids.ClientID are comparable, so it allocates nothing.
func sameSignedFields(a, b *RMC) bool {
	return a.Service == b.Service && a.Rolefile == b.Rolefile && a.Roles == b.Roles &&
		a.Client == b.Client && a.CRR == b.CRR && a.Expiry == b.Expiry &&
		slices.Equal(a.Args, b.Args)
}
