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
	"slices"
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
	names  []string
	bits   map[string]int
	sorted []int // the bits in the order of their names
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
		m.sorted = append(m.sorted, i)
	}
	slices.SortFunc(m.sorted, func(a, b int) int { return strings.Compare(names[a], names[b]) })
	return m, nil
}

// Bit returns the bit for a role name.
func (m *RoleMap) Bit(role string) (int, bool) {
	b, ok := m.bits[role]
	return b, ok
}

// AppendNames appends the role names of a RoleSet to dst, sorted: a
// reply reusing its array allocates nothing.
func (m *RoleMap) AppendNames(dst []string, s RoleSet) []string {
	for _, i := range m.sorted {
		if s.Has(i) {
			dst = append(dst, m.names[i])
		}
	}
	return dst
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

// appendCanonical appends the signed fields, serialised
// deterministically. The client identifier and context are folded in
// so that theft and out-of-context use change the signature (figure
// 4.1).
func (c *RMC) appendCanonical(b []byte) []byte {
	b = append(b, "rmc|"...)
	b = append(append(b, c.Service...), '|')
	b = append(append(b, c.Rolefile...), '|')
	b = append(strconv.AppendUint(b, uint64(c.Roles), 16), '|')
	b = append(value.AppendArgs(b, c.Args), '|')
	b = append(c.Client.AppendTo(b), '|')
	b = append(strconv.AppendUint(b, c.CRR.Uint64(), 16), '|')
	if !c.Expiry.IsZero() {
		b = strconv.AppendInt(b, c.Expiry.UnixNano(), 10)
	}
	return b
}

// Sign computes and stores the signature using the given signer.
func (c *RMC) Sign(s Signer) { c.Sig = sign(c, s) }

// Verify checks the signature over the certificate's current fields.
// Nothing is remembered on the certificate or elsewhere: the service
// engine verifies a presented certificate on every use, and keeps a
// verdict only for a certificate it holds itself (oasis.Held).
func (c *RMC) Verify(s Signer) bool { return verify(c, s, c.Sig) }

// SignedBytes exposes the canonical signed form.
func (c *RMC) SignedBytes() []byte { return c.appendCanonical(nil) }

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

func (r *RoleSpec) appendCanonical(b []byte) []byte {
	b = append(append(b, r.Service...), '.')
	b = append(append(b, r.Rolefile...), '.')
	b = append(append(b, r.Role...), '(')
	return append(value.AppendArgs(b, r.Args), ')')
}

// String renders the spec.
func (r RoleSpec) String() string { return string(r.appendCanonical(nil)) }

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

func (d *Delegation) appendCanonical(b []byte) []byte {
	b = append(b, "deleg|"...)
	b = append(append(b, d.Service...), '|')
	b = append(append(b, d.Rolefile...), '|')
	b = append(append(b, d.Role...), '|')
	b = append(value.AppendArgs(b, d.Args), '|')
	for i := range d.Required {
		b = append(d.Required[i].appendCanonical(b), ';')
	}
	b = append(b, '|')
	b = append(strconv.AppendUint(b, d.DelegCRR.Uint64(), 16), '|')
	if !d.Expiry.IsZero() {
		b = strconv.AppendInt(b, d.Expiry.UnixNano(), 10)
	}
	return b
}

// Sign signs the delegation certificate.
func (d *Delegation) Sign(s Signer) { d.Sig = sign(d, s) }

// Verify checks the delegation certificate's signature.
func (d *Delegation) Verify(s Signer) bool { return verify(d, s, d.Sig) }

// Revocation is a revocation certificate (figure 4.3). DelegatorCRR
// witnesses that the delegator is still a member of the delegating role;
// TargetCRR is the credential to be invalidated.
type Revocation struct {
	Service      string
	DelegatorCRR credrec.Ref
	TargetCRR    credrec.Ref
	Sig          []byte
}

func (r *Revocation) appendCanonical(b []byte) []byte {
	b = append(b, "revoke|"...)
	b = append(append(b, r.Service...), '|')
	b = append(strconv.AppendUint(b, r.DelegatorCRR.Uint64(), 16), '|')
	return strconv.AppendUint(b, r.TargetCRR.Uint64(), 16)
}

// Sign signs the revocation certificate.
func (r *Revocation) Sign(s Signer) { r.Sig = sign(r, s) }

// Verify checks the revocation certificate's signature.
func (r *Revocation) Verify(s Signer) bool { return verify(r, s, r.Sig) }

// signed is a certificate's canonical form: its signed fields,
// appended to a buffer.
type signed interface{ appendCanonical(b []byte) []byte }

// canonBufs holds canonical-form scratch: Sign and Verify serialise
// into a pooled buffer and hand it to the signer, which keeps nothing
// of it (Signer), so the form costs no allocation. Pointers are pooled
// so Put does not allocate.
var canonBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// maxCanonBuf keeps one certificate with outsized arguments from
// pinning its buffer in the pool.
const maxCanonBuf = 16 << 10

// withCanonical serialises x into a pooled buffer for the length of f.
func withCanonical[T any](x signed, f func(data []byte) T) T {
	bp := canonBufs.Get().(*[]byte)
	*bp = x.appendCanonical((*bp)[:0])
	out := f(*bp)
	if cap(*bp) <= maxCanonBuf {
		canonBufs.Put(bp)
	}
	return out
}

func sign(x signed, s Signer) []byte { return withCanonical(x, s.Sign) }

func verify(x signed, s Signer, sig []byte) bool {
	return withCanonical(x, func(data []byte) bool { return s.Verify(data, sig) })
}

// Signer abstracts the integrity check so that each service can choose
// its own security/efficiency trade-off (§4.2): a cheap short-signature
// HMAC, a full-length one, a rolling table, or a plain issue-record.
// Implementations must be safe for concurrent use: the engine signs and
// verifies certificates from many goroutines at once. Neither method
// may keep data past its return: it is a pooled buffer, reused for the
// next certificate.
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
	pool   sync.Pool // of *macState keyed with secret
}

// macState is one pooled HMAC state with the scratch its sum is written
// to: a sum passes through hash.Hash.Sum, an interface call, so a
// buffer on Verify's stack would escape to the heap on every check.
type macState struct {
	h   hash.Hash
	sum [sha256.Size]byte
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
	h.pool.New = func() any { return &macState{h: hmac.New(sha256.New, h.secret)} }
	return h
}

// mac computes the truncated HMAC of data into the pooled state's
// scratch; the result is valid until the state goes back to the pool.
func (h *HMACSigner) mac(m *macState, data []byte) []byte {
	m.h.Reset()
	m.h.Write(data)
	return m.h.Sum(m.sum[:0])[:h.size]
}

// Sign implements Signer.
func (h *HMACSigner) Sign(data []byte) []byte {
	m := h.pool.Get().(*macState)
	sig := append(make([]byte, 0, sha256.Size), h.mac(m, data)...)
	h.pool.Put(m)
	return sig
}

// Verify implements Signer.
func (h *HMACSigner) Verify(data, sig []byte) bool {
	m := h.pool.Get().(*macState)
	ok := subtle.ConstantTimeCompare(h.mac(m, data), sig) == 1
	h.pool.Put(m)
	return ok
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
