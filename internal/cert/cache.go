package cert

import (
	"sync"
	"sync/atomic"
	"time"

	"oasis/internal/credrec"
	"oasis/internal/ids"
	"oasis/internal/value"
)

// Hot-path caching for the two certificate types whose canonical byte
// form is expensive to rebuild (RMC and Delegation; a Revocation's is
// three integers). Every Sign and Verify used to re-serialise the
// signed fields — argument marshalling, client identifier rendering, a
// strings.Builder — which dominated repeat validation. Two layers
// remove that:
//
//  1. Canonical-bytes cache: the serialised form is computed once,
//     together with a snapshot of the fields it was built from. A
//     later use first checks the certificate against the snapshot —
//     an allocation-free field comparison, much cheaper than
//     re-serialising — and rebuilds on any difference. Tampering with
//     any signed field (tests forge certificates by both in-place
//     mutation and struct copy) therefore always re-serialises the
//     current — tampered — fields and fails verification, exactly as
//     before; only genuinely unchanged certificates hit the cache.
//
//  2. Verify memo: a successful verification records (signer, signer
//     epoch, signature); a repeat Verify of an unchanged certificate
//     under the same signer and an unchanged secret table skips the
//     HMAC entirely. Epochs (EpochSigner) invalidate the memo when a
//     rolling signer's secret table changes, so a certificate whose
//     signing secret has been retired re-verifies — and fails —
//     rather than riding a stale memo.
//
// Signers stored in memos are compared by interface identity, so
// Signer implementations must be comparable — in practice, pointers
// (every implementation in this package is).

// EpochSigner is a Signer whose accepted-secret set can change over
// time (the rolling table of §5.5.1). Epoch increments whenever the
// set changes; verification caches key on it so nothing verified under
// an old table is trusted under a new one.
type EpochSigner interface {
	Signer
	Epoch() uint64 // bumped on every accepted-secret-set change
}

// signerEpoch folds non-epoch signers into epoch 0. RecordSigner's
// issue record only ever grows, so its memos never need invalidating
// either.
func signerEpoch(s Signer) uint64 {
	if es, ok := s.(EpochSigner); ok {
		return es.Epoch()
	}
	return 0
}

// verifyMemo records one successful verification.
type verifyMemo struct {
	signer Signer
	epoch  uint64
	sig    string // the verified signature bytes
}

// canonCore is the shared cache payload: the canonical bytes and the
// last successful verification against them.
type canonCore struct {
	data []byte
	memo atomic.Pointer[verifyMemo]
}

// verifyCached checks the memo, falls back to the real signature
// check, and memoizes success.
func (cc *canonCore) verifyCached(s Signer, sig []byte) bool {
	epoch := signerEpoch(s)
	if m := cc.memo.Load(); m != nil && m.signer == s && m.epoch == epoch && string(sig) == m.sig {
		return true
	}
	if !s.Verify(cc.data, sig) {
		return false
	}
	cc.memo.Store(&verifyMemo{signer: s, epoch: epoch, sig: string(sig)})
	return true
}

// argsEqual compares argument vectors; value.Value is a comparable
// struct, so this allocates nothing.
func argsEqual(a, b []value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---- RMC ----

// rmcCanon pairs the canonical bytes with the exact field values they
// were built from. The argument slice is copied so aliasing mutations
// are caught too.
type rmcCanon struct {
	canonCore
	service  string
	rolefile string
	roles    RoleSet
	args     []value.Value
	client   ids.ClientID
	crr      credrec.Ref
	expiry   time.Time
}

func (cs *rmcCanon) matches(c *RMC) bool {
	return cs.service == c.Service && cs.rolefile == c.Rolefile &&
		cs.roles == c.Roles && cs.client == c.Client && cs.crr == c.CRR &&
		cs.expiry == c.Expiry && argsEqual(cs.args, c.Args)
}

// canonEntry returns the cache entry for the certificate's current
// field values, rebuilding the canonical bytes if anything changed
// since they were last computed.
func (c *RMC) canonEntry() *rmcCanon {
	if cs, _ := c.canon.Load().(*rmcCanon); cs != nil && cs.matches(c) {
		return cs
	}
	cs := &rmcCanon{
		canonCore: canonCore{data: c.buildCanonical()},
		service:   c.Service,
		rolefile:  c.Rolefile,
		roles:     c.Roles,
		args:      append([]value.Value(nil), c.Args...),
		client:    c.Client,
		crr:       c.CRR,
		expiry:    c.Expiry,
	}
	c.canon.Store(cs)
	return cs
}

// canonical returns the canonical signed byte form, cached across
// calls while the certificate's fields are unchanged.
func (c *RMC) canonical() []byte { return c.canonEntry().data }

// Sign computes and stores the signature using the given signer.
func (c *RMC) Sign(s Signer) { c.Sig = s.Sign(c.canonical()) }

// Verify checks the signature. Repeat verifications of an unchanged
// certificate under an unchanged signer are memoized (see the comment
// at the top of this file).
func (c *RMC) Verify(s Signer) bool { return c.canonEntry().verifyCached(s, c.Sig) }

// SignedBytes exposes the canonical signed form (cached); the service
// engine keys its cross-instance verification cache on it.
func (c *RMC) SignedBytes() []byte { return c.canonical() }

// ---- Delegation ----

// delegCanon is the Delegation counterpart of rmcCanon; the required
// role specs are deep-copied (their argument slices too).
type delegCanon struct {
	canonCore
	service  string
	rolefile string
	role     string
	args     []value.Value
	required []RoleSpec
	delegCRR credrec.Ref
	expiry   time.Time
}

func (cs *delegCanon) matches(d *Delegation) bool {
	if cs.service != d.Service || cs.rolefile != d.Rolefile || cs.role != d.Role ||
		cs.delegCRR != d.DelegCRR || cs.expiry != d.Expiry ||
		!argsEqual(cs.args, d.Args) || len(cs.required) != len(d.Required) {
		return false
	}
	for i := range cs.required {
		a, b := &cs.required[i], &d.Required[i]
		if a.Service != b.Service || a.Rolefile != b.Rolefile || a.Role != b.Role ||
			!argsEqual(a.Args, b.Args) {
			return false
		}
	}
	return true
}

func (d *Delegation) canonEntry() *delegCanon {
	if cs, _ := d.canon.Load().(*delegCanon); cs != nil && cs.matches(d) {
		return cs
	}
	required := make([]RoleSpec, len(d.Required))
	for i, spec := range d.Required {
		spec.Args = append([]value.Value(nil), spec.Args...)
		required[i] = spec
	}
	cs := &delegCanon{
		canonCore: canonCore{data: d.buildCanonical()},
		service:   d.Service,
		rolefile:  d.Rolefile,
		role:      d.Role,
		args:      append([]value.Value(nil), d.Args...),
		required:  required,
		delegCRR:  d.DelegCRR,
		expiry:    d.Expiry,
	}
	d.canon.Store(cs)
	return cs
}

// canonical returns the canonical signed byte form, cached across
// calls while the certificate's fields are unchanged.
func (d *Delegation) canonical() []byte { return d.canonEntry().data }

// Sign signs the delegation certificate.
func (d *Delegation) Sign(s Signer) { d.Sig = s.Sign(d.canonical()) }

// Verify checks the delegation certificate's signature, memoizing
// repeat successes like RMC.Verify.
func (d *Delegation) Verify(s Signer) bool { return d.canonEntry().verifyCached(s, d.Sig) }

// ---- cross-instance verify cache ----

// VerifyCache remembers verified certificates across *instances*: the
// remote-validation path deserialises a fresh RMC per call, so the
// per-instance cache above never hits there. Entries are keyed by the
// signature bytes and store the verified field snapshot; a hit
// requires the presented certificate to match the snapshot
// field-for-field, so a forged body paired with a stolen valid
// signature misses and takes the full verification path. On a hit both
// the canonical rebuild and the signature check are skipped, and the
// shared entry is seeded into the presented instance so later
// per-instance checks are free too. Signature collisions (possible
// with truncated signatures) only cause churn, never unsoundness — the
// snapshot comparison still gates every answer.
//
// Entries answer only for the secret-table epoch they were verified
// under, so rolling the table (§5.5.1) expires every cached verdict.
// Sharded by the first signature byte; each shard is bounded, evicting
// an arbitrary entry on overflow, which costs only a re-verification.
const (
	verifyCacheShards   = 16
	verifyCacheShardCap = 1024
)

type verifiedEntry struct {
	entry  *rmcCanon
	signer Signer
	epoch  uint64
}

type verifyCacheShard struct {
	mu sync.RWMutex
	m  map[string]*verifiedEntry
}

// VerifyCache is safe for concurrent use by multiple goroutines.
type VerifyCache struct {
	shards [verifyCacheShards]verifyCacheShard
}

func NewVerifyCache() *VerifyCache {
	vc := &VerifyCache{}
	for i := range vc.shards {
		vc.shards[i].m = make(map[string]*verifiedEntry)
	}
	return vc
}

// VerifyRMC checks c's signature under s, consulting and updating the
// cache. Only positive verdicts are cached; failures always re-verify.
func (vc *VerifyCache) VerifyRMC(c *RMC, s Signer) bool {
	if len(c.Sig) == 0 {
		return c.Verify(s)
	}
	sh := &vc.shards[c.Sig[0]%verifyCacheShards]
	epoch := signerEpoch(s)
	sh.mu.RLock()
	v := sh.m[string(c.Sig)]
	sh.mu.RUnlock()
	if v != nil && v.signer == s && v.epoch == epoch && v.entry.matches(c) {
		c.canon.Store(v.entry)
		return true
	}
	if !c.Verify(s) {
		return false
	}
	sh.mu.Lock()
	if len(sh.m) >= verifyCacheShardCap {
		for k := range sh.m {
			delete(sh.m, k)
			break
		}
	}
	sh.m[string(c.Sig)] = &verifiedEntry{entry: c.canonEntry(), signer: s, epoch: epoch}
	sh.mu.Unlock()
	return true
}
