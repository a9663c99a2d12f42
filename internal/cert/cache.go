package cert

import (
	"hash/maphash"
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
// Only positive verdicts are stored, and only for a certificate seen
// twice (admit). Signers are compared by interface identity, so
// implementations must be comparable — in practice, pointers (every
// implementation in this package is).
const (
	verifyCacheShards   = 16
	verifyCacheShardCap = 1024
	doorkeeperBits      = 8 * verifyCacheShardCap
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
	mu    sync.RWMutex
	m     map[string]*verifiedRMC
	door  [doorkeeperBits / 64]uint64 // admit's bitset
	marks int                         // first sights since door was cleared
}

// VerifyCache is safe for concurrent use by multiple goroutines.
type VerifyCache struct {
	shards [verifyCacheShards]verifyCacheShard
	seed   maphash.Seed // picks a signature's doorkeeper bits
}

func NewVerifyCache() *VerifyCache {
	vc := &VerifyCache{seed: maphash.MakeSeed()}
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
	h := maphash.Bytes(vc.seed, c.Sig)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// A signature already stored was admitted before: it is re-verified
	// after an epoch bump or a field mismatch and replaces its own entry.
	if _, stored := sh.m[string(c.Sig)]; !stored {
		if !sh.admit(h) {
			return true
		}
		if len(sh.m) >= verifyCacheShardCap {
			for k := range sh.m {
				delete(sh.m, k)
				break
			}
		}
	}
	v = &verifiedRMC{fields: *c, signer: s, epoch: epoch}
	v.fields.Args = slices.Clone(c.Args)
	v.fields.Sig = nil
	sh.m[string(c.Sig)] = v
	return true
}

// admit is TinyLFU's doorkeeper (Einziger, Friedman and Manes, ACM ToS
// 2017): it reports whether the signature hashing to h was seen since
// the shard last cleared its bitset, and marks it if not. Most
// certificates are presented once — an R introspected once, after its
// logout — and cost their full check but no entry. A sight sets two
// bits; the bitset is cleared every verifyCacheShardCap marks. It only
// decides what is stored, after a full check passed, so a false
// positive stores a verified verdict and nothing else. Called under
// the shard's write lock.
func (sh *verifyCacheShard) admit(h uint64) bool {
	i, j := h%doorkeeperBits, (h>>32)%doorkeeperBits
	if sh.door[i/64]&(1<<(i%64)) != 0 && sh.door[j/64]&(1<<(j%64)) != 0 {
		return true
	}
	if sh.marks == verifyCacheShardCap {
		sh.door, sh.marks = [doorkeeperBits / 64]uint64{}, 0
	}
	sh.marks++
	sh.door[i/64] |= 1 << (i % 64)
	sh.door[j/64] |= 1 << (j % 64)
	return false
}

// sameSignedFields compares every field appendCanonical serialises;
// value.Value and ids.ClientID are comparable, so it allocates nothing.
func sameSignedFields(a, b *RMC) bool {
	return a.Service == b.Service && a.Rolefile == b.Rolefile && a.Roles == b.Roles &&
		a.Client == b.Client && a.CRR == b.CRR && a.Expiry == b.Expiry &&
		slices.Equal(a.Args, b.Args)
}
