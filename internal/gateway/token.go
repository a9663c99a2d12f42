package gateway

import (
	"encoding/hex"
	"fmt"
	"io"
	"sync"
	"time"

	"oasis/internal/cert"
	"oasis/internal/credrec"
	"oasis/internal/oasis"
)

// tokenRecord binds an opaque token id to the live role membership
// certificate it stands for, held for the engine's held-certificate
// rule (oasis.Held). Validity is NOT stored here: every introspection
// asks the engine, whose credential-record store is the single source
// of truth — revocation cascades reach token holders with no per-token
// bookkeeping in the gateway.
type tokenRecord struct {
	held   *oasis.Held
	issued time.Time
}

// tokenShards stripes the token table; the hot paths (issue inserts,
// introspect reads) then contend only per shard, matching the store's
// own striping discipline.
const tokenShards = 16

type tokenShard struct {
	mu     sync.RWMutex
	tokens map[string]tokenRecord
	mints  int // inserts since the last sweep of this shard
}

// tokenStore is the sharded opaque-id → record table.
type tokenStore struct {
	randMu sync.Mutex
	rand   io.Reader

	shards [tokenShards]tokenShard
}

// sweepEvery is the number of inserts per shard between amortised
// sweeps, bounding dead-token memory without a background goroutine
// (the gateway has no timer of its own; deployments with a virtual
// clock would never fire one).
const sweepEvery = 256

func newTokenStore(r io.Reader) *tokenStore {
	ts := &tokenStore{rand: r}
	for i := range ts.shards {
		ts.shards[i].tokens = make(map[string]tokenRecord)
	}
	return ts
}

// shardIndex hashes the token id (FNV-1a over the id bytes) to a shard
// index; introspection holds the id as bytes of the request body,
// everything else as a string.
func shardIndex[T string | []byte](id T) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return h % tokenShards
}

// mint draws a fresh 128-bit opaque id, binds it to the certificate,
// and returns the id. Expiry and validity ride on the certificate
// itself (cert.Expiry, its credential record in store); the table only
// sweeps, every sweepEvery inserts, the records an introspection would
// drop on sight: expired, or revoked for good — most tokens a cascade
// kills are never asked about again. A fail-safe demotion is not
// permanent and keeps its tokens. A token whose secret has rolled out
// is found only by checking its signature, which the sweep does not
// do; the next introspection or revoke of it drops it.
func (ts *tokenStore) mint(c *cert.RMC, now time.Time, store credrec.Recorder) (string, error) {
	var raw [16]byte
	ts.randMu.Lock()
	_, err := io.ReadFull(ts.rand, raw[:])
	ts.randMu.Unlock()
	if err != nil {
		return "", fmt.Errorf("gateway: token entropy: %w", err)
	}
	var text [2 * len(raw)]byte
	hex.Encode(text[:], raw[:])
	id := string(text[:])
	sh := &ts.shards[shardIndex(id)]
	sh.mu.Lock()
	sh.tokens[id] = tokenRecord{held: oasis.Hold(c), issued: now}
	sh.mints++
	if sh.mints >= sweepEvery {
		sh.mints = 0
		for k, rec := range sh.tokens {
			if c := rec.held.Cert(); !c.Expiry.IsZero() && now.After(c.Expiry) || alreadyDead(store, c.CRR) {
				delete(sh.tokens, k)
			}
		}
	}
	sh.mu.Unlock()
	return id, nil
}

// lookup resolves a token id; the bool reports existence. The id is
// taken as bytes so the read path can pass a slice of the request body:
// a map index by string(id) does not allocate.
func (ts *tokenStore) lookup(id []byte) (tokenRecord, bool) {
	sh := &ts.shards[shardIndex(id)]
	sh.mu.RLock()
	rec, ok := sh.tokens[string(id)]
	sh.mu.RUnlock()
	return rec, ok
}

// remove forgets a token id (after revocation, or when introspection
// finds it expired or revoked for good). Removing an absent id is a
// no-op — revocation is idempotent all the way down.
func (ts *tokenStore) remove(id string) {
	sh := &ts.shards[shardIndex(id)]
	sh.mu.Lock()
	delete(sh.tokens, id)
	sh.mu.Unlock()
}

// len counts live records across shards.
func (ts *tokenStore) len() int {
	n := 0
	for i := range ts.shards {
		sh := &ts.shards[i]
		sh.mu.RLock()
		n += len(sh.tokens)
		sh.mu.RUnlock()
	}
	return n
}
