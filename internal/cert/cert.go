// Package cert implements OASIS certificates: role membership
// certificates (figure 4.2), delegation and revocation certificates
// (figure 4.3), and the digital-signature machinery of figure 4.1,
// including the rolling secret table of §5.5.1.
//
// A certificate is an idealised membership card (§2.9): its attributes
// can be examined, and forgery, tampering, theft and use out of context
// are all detectable. The only function of the signature is to detect
// forgery (§4.2); revocation is carried by the embedded credential
// record reference, never by changing secrets.
package cert

import (
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"fmt"
	"hash"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oasis/internal/credrec"
	"oasis/internal/ids"
	"oasis/internal/value"
)

// RoleSet is a bitset over a service's role-name mapping: compound
// certificates represent membership of several roles with identical
// arguments (§4.3).
type RoleSet uint64

// Has reports whether bit i is set.
func (s RoleSet) Has(i int) bool { return s&(1<<uint(i)) != 0 }

// With returns the set with bit i added.
func (s RoleSet) With(i int) RoleSet { return s | 1<<uint(i) }

// RoleMap fixes the mapping between role names and bits. The mapping
// must not change during the lifetime of the service, so it is provided
// as configuration when a service is initialised (§4.3).
type RoleMap struct {
	names []string
	bits  map[string]int
}

// NewRoleMap builds a role map. Order is significant and must be stable
// across restarts of the service.
func NewRoleMap(names ...string) (*RoleMap, error) {
	if len(names) > 64 {
		return nil, fmt.Errorf("cert: at most 64 roles per rolefile, got %d", len(names))
	}
	m := &RoleMap{names: append([]string(nil), names...), bits: make(map[string]int, len(names))}
	for i, n := range names {
		if _, dup := m.bits[n]; dup {
			return nil, fmt.Errorf("cert: duplicate role name %q", n)
		}
		m.bits[n] = i
	}
	return m, nil
}

// Bit returns the bit for a role name.
func (m *RoleMap) Bit(role string) (int, bool) {
	b, ok := m.bits[role]
	return b, ok
}

// Names expands a RoleSet to sorted role names.
func (m *RoleMap) Names(s RoleSet) []string {
	var out []string
	for i, n := range m.names {
		if s.Has(i) {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// RMC is a role membership certificate (figure 4.2): a process-specific
// capability entitling the named client to act under the authority of
// the certified role(s).
type RMC struct {
	Service  string  // issuing service instance
	Rolefile string  // scope within the service (§2.10)
	Roles    RoleSet // compound role bits (§4.3)
	Args     []value.Value
	Client   ids.ClientID // the client the certificate is bound to
	CRR      credrec.Ref  // validity credential (§4.6)
	Expiry   time.Time    // zero = no expiry
	Sig      []byte
}

// buildCanonical serialises the signed fields deterministically. The
// client identifier and context are folded in so that theft and
// out-of-context use change the signature (figure 4.1).
func (c *RMC) buildCanonical() []byte {
	var b strings.Builder
	b.WriteString("rmc|")
	b.WriteString(c.Service)
	b.WriteByte('|')
	b.WriteString(c.Rolefile)
	b.WriteByte('|')
	b.WriteString(strconv.FormatUint(uint64(c.Roles), 16))
	b.WriteByte('|')
	b.WriteString(value.MarshalArgs(c.Args))
	b.WriteByte('|')
	b.WriteString(c.Client.String())
	b.WriteByte('|')
	b.WriteString(strconv.FormatUint(c.CRR.Uint64(), 16))
	b.WriteByte('|')
	if !c.Expiry.IsZero() {
		b.WriteString(strconv.FormatInt(c.Expiry.UnixNano(), 10))
	}
	return []byte(b.String())
}

// Sign computes and stores the signature using the given signer.
func (c *RMC) Sign(s Signer) { c.Sig = s.Sign(c.buildCanonical()) }

// Verify checks the signature over the certificate's current fields.
// Nothing is remembered on the certificate; the service engine's
// repeat checks go through VerifyCache (cache.go).
func (c *RMC) Verify(s Signer) bool { return s.Verify(c.buildCanonical(), c.Sig) }

// SignedBytes exposes the canonical signed form.
func (c *RMC) SignedBytes() []byte { return c.buildCanonical() }

// String renders the certificate briefly.
func (c *RMC) String() string {
	return fmt.Sprintf("RMC{%s/%s roles=%x args=%s client=%v crr=%v}",
		c.Service, c.Rolefile, uint64(c.Roles), value.MarshalArgs(c.Args), c.Client, c.CRR)
}

// RoleSpec names a role (with concrete arguments) that a delegation
// candidate must hold (figure 4.3: "required roles").
type RoleSpec struct {
	Service  string
	Rolefile string
	Role     string
	Args     []value.Value
}

func (r RoleSpec) canonical() string {
	return r.Service + "." + r.Rolefile + "." + r.Role + "(" + value.MarshalArgs(r.Args) + ")"
}

// String renders the spec.
func (r RoleSpec) String() string { return r.canonical() }

// Delegation is a delegation certificate (figure 4.3): the delegator's
// service-countersigned offer of entry to Role for any client holding
// the required roles. Candidates present it when entering the role; the
// embedded DelegCRR is the credential record representing the
// (revocable) delegation.
type Delegation struct {
	Service  string
	Rolefile string
	Role     string // role to be entered
	Args     []value.Value
	Required []RoleSpec  // roles the delegator requires the candidate to hold
	DelegCRR credrec.Ref // the delegation's own credential record
	Expiry   time.Time   // delegations should time out (§4.4)
	Sig      []byte
}

func (d *Delegation) buildCanonical() []byte {
	var b strings.Builder
	b.WriteString("deleg|")
	b.WriteString(d.Service)
	b.WriteByte('|')
	b.WriteString(d.Rolefile)
	b.WriteByte('|')
	b.WriteString(d.Role)
	b.WriteByte('|')
	b.WriteString(value.MarshalArgs(d.Args))
	b.WriteByte('|')
	for _, r := range d.Required {
		b.WriteString(r.canonical())
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

// Sign signs the delegation certificate.
func (d *Delegation) Sign(s Signer) { d.Sig = s.Sign(d.buildCanonical()) }

// Verify checks the delegation certificate's signature.
func (d *Delegation) Verify(s Signer) bool { return s.Verify(d.buildCanonical(), d.Sig) }

// Revocation is a revocation certificate (figure 4.3). DelegatorCRR
// witnesses that the delegator is still a member of the delegating role;
// TargetCRR is the credential to be invalidated.
type Revocation struct {
	Service      string
	DelegatorCRR credrec.Ref
	TargetCRR    credrec.Ref
	Sig          []byte
}

func (r *Revocation) canonical() []byte {
	return []byte("revoke|" + r.Service + "|" +
		strconv.FormatUint(r.DelegatorCRR.Uint64(), 16) + "|" +
		strconv.FormatUint(r.TargetCRR.Uint64(), 16))
}

// Sign signs the revocation certificate.
func (r *Revocation) Sign(s Signer) { r.Sig = s.Sign(r.canonical()) }

// Verify checks the revocation certificate's signature.
func (r *Revocation) Verify(s Signer) bool { return s.Verify(r.canonical(), r.Sig) }

// Signer abstracts the integrity check so that each service can choose
// its own security/efficiency trade-off (§4.2): a cheap short-signature
// HMAC, a full-length one, a rolling table, or a plain issue-record.
// Implementations must be safe for concurrent use: the engine signs and
// verifies certificates from many goroutines at once.
type Signer interface {
	Sign(data []byte) []byte
	Verify(data, sig []byte) bool
}

// HMACSigner signs with HMAC-SHA256 under a single secret, truncating to
// size bytes (variable-length signatures, §4.2).
//
// hash.Hash instances are not goroutine-safe, so a keyed HMAC state is
// never shared between concurrent callers: each Sign/Verify takes one
// from a pool (HMAC key setup costs two SHA-256 block compressions, well
// worth avoiding per certificate check) and returns it reset. Sign and
// Verify are safe for arbitrary concurrent use.
type HMACSigner struct {
	secret []byte
	size   int
	pool   sync.Pool // of hash.Hash keyed with secret
}

// NewHMACSigner creates a signer. size is clamped to [4, 32].
func NewHMACSigner(secret []byte, size int) *HMACSigner {
	if size < 4 {
		size = 4
	}
	if size > sha256.Size {
		size = sha256.Size
	}
	h := &HMACSigner{secret: append([]byte(nil), secret...), size: size}
	h.pool.New = func() any { return hmac.New(sha256.New, h.secret) }
	return h
}

// mac computes the truncated HMAC into the caller's buffer.
func (h *HMACSigner) mac(buf []byte, data []byte) []byte {
	m := h.pool.Get().(hash.Hash)
	m.Reset()
	m.Write(data)
	out := m.Sum(buf[:0])[:h.size]
	h.pool.Put(m)
	return out
}

// Sign implements Signer.
func (h *HMACSigner) Sign(data []byte) []byte {
	return h.mac(make([]byte, 0, sha256.Size), data)
}

// Verify implements Signer.
func (h *HMACSigner) Verify(data, sig []byte) bool {
	var buf [sha256.Size]byte
	return subtle.ConstantTimeCompare(h.mac(buf[:0], data), sig) == 1
}

// RollingSigner maintains a rolling table of secrets (§5.5.1): new
// certificates are signed with the newest secret, but certificates
// signed with any retained secret still verify. Periodically rolling
// bounds the useful lifetime of a compromised secret.
//
// The secret table is copy-on-write: Roll publishes a fresh slice
// through an atomic pointer, so Sign and Verify read a consistent table
// without taking any lock and may run concurrently with each other and
// with Roll (the engine rolls secrets while validations are in flight,
// §5.5.1's periodic roll).
type RollingSigner struct {
	rollMu sync.Mutex // serialises Roll against Roll
	gens   atomic.Pointer[[]*HMACSigner]
	epoch  atomic.Uint64 // bumped by Roll; invalidates verification caches
	keep   int
	size   int
}

// NewRollingSigner creates a rolling signer retaining keep secrets.
func NewRollingSigner(initial []byte, size, keep int) *RollingSigner {
	if keep < 1 {
		keep = 1
	}
	r := &RollingSigner{keep: keep, size: size}
	gens := []*HMACSigner{NewHMACSigner(initial, size)}
	r.gens.Store(&gens)
	return r
}

// Roll installs a new current secret, discarding the oldest beyond the
// retention limit; certificates signed with discarded secrets no longer
// verify (they have timed out, §5.5.1).
func (r *RollingSigner) Roll(secret []byte) {
	r.rollMu.Lock()
	defer r.rollMu.Unlock()
	old := *r.gens.Load()
	gens := append([]*HMACSigner{NewHMACSigner(secret, r.size)}, old...)
	if len(gens) > r.keep {
		gens = gens[:r.keep]
	}
	r.gens.Store(&gens)
	// Publish the epoch bump after the new table: a verification cache
	// that still sees the old epoch re-checks against the new table,
	// which is the safe direction.
	r.epoch.Add(1)
}

// Epoch implements EpochSigner: every Roll changes the accepted set.
func (r *RollingSigner) Epoch() uint64 { return r.epoch.Load() }

// Generations reports how many secrets are currently accepted.
func (r *RollingSigner) Generations() int { return len(*r.gens.Load()) }

// Sign implements Signer using the newest secret.
func (r *RollingSigner) Sign(data []byte) []byte { return (*r.gens.Load())[0].Sign(data) }

// Verify implements Signer, accepting any retained secret.
func (r *RollingSigner) Verify(data, sig []byte) bool {
	for _, s := range *r.gens.Load() {
		if s.Verify(data, sig) {
			return true
		}
	}
	return false
}

var _ EpochSigner = (*RollingSigner)(nil)

// RecordSigner keeps a record of everything issued instead of relying on
// cryptography — the paper notes a service issuing few certificates may
// prefer this (§4.2). Not safe against a compromised server, like any
// secret-based scheme, but immune to cryptanalysis. The issue record is
// a read-mostly table: verification takes a read lock only.
type RecordSigner struct {
	mu     sync.RWMutex
	issued map[string]bool
	n      uint64
}

// NewRecordSigner creates an issue-record signer.
//
//oasislint:keep §4.2 issue record in place of a signature
func NewRecordSigner() *RecordSigner { return &RecordSigner{issued: make(map[string]bool)} }

// Sign implements Signer by recording the exact bytes issued.
func (r *RecordSigner) Sign(data []byte) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.n++
	tag := strconv.FormatUint(r.n, 10)
	r.issued[string(data)+"|"+tag] = true
	return []byte(tag)
}

// Verify implements Signer by consulting the issue record.
func (r *RecordSigner) Verify(data, sig []byte) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.issued[string(data)+"|"+string(sig)]
}

var _ Signer = (*RecordSigner)(nil)
