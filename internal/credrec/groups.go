package credrec

import (
	"hash/maphash"
	"sync"
)

// Groups manages credential records for group membership (§4.8.1).
// Rather than storing a record for every possible membership, a hash
// table of "interesting" credentials is kept, indexed by (member, group):
// those with child records or used by an external server. When group
// membership changes, the corresponding record — if any — is updated and
// the change propagates through the graph.
//
// The table is hash-striped like the record store itself: membership
// tests on the entry hot path (§3.2.2 constraint evaluation) take one
// shard read lock, so lookups of unrelated (member, group) pairs never
// contend. Lock order: a Groups shard lock may be held while acquiring
// Store locks (AddMember/RemoveMember propagate state changes with the
// shard held); the Store never calls back into Groups, so the reverse
// edge cannot occur.
type Groups struct {
	st   Recorder
	seed maphash.Seed

	shards [numShards]groupShard
}

type groupShard struct {
	mu          sync.RWMutex
	members     map[groupKey]bool
	interesting map[groupKey]Ref
}

type groupKey struct {
	member string
	group  string
}

// NewGroups creates a group-membership manager over the given store.
func NewGroups(st Recorder) *Groups {
	g := &Groups{st: st, seed: maphash.MakeSeed()}
	for i := range g.shards {
		g.shards[i].members = make(map[groupKey]bool)
		g.shards[i].interesting = make(map[groupKey]Ref)
	}
	return g
}

func (g *Groups) shardFor(k groupKey) *groupShard {
	var h maphash.Hash
	h.SetSeed(g.seed)
	h.WriteString(k.member)
	h.WriteByte(0)
	h.WriteString(k.group)
	return &g.shards[h.Sum64()%numShards]
}

// AddMember records that member belongs to group, updating any
// interesting credential record.
func (g *Groups) AddMember(member, group string) {
	k := groupKey{member, group}
	sh := g.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.members[k] = true
	if ref, ok := sh.interesting[k]; ok {
		if err := g.st.SetState(ref, True); err != nil {
			// Record became permanent or was swept; a future
			// CredentialFor will mint a fresh one.
			delete(sh.interesting, k)
		}
	}
}

// RemoveMember records that member no longer belongs to group. Any
// certificate whose membership rule mentions this group membership is
// revoked by propagation (the worked example of §3.2.3).
func (g *Groups) RemoveMember(member, group string) {
	k := groupKey{member, group}
	sh := g.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	delete(sh.members, k)
	if ref, ok := sh.interesting[k]; ok {
		if err := g.st.SetState(ref, False); err != nil {
			delete(sh.interesting, k)
		}
	}
}

// IsMember reports current membership.
func (g *Groups) IsMember(member, group string) bool {
	k := groupKey{member, group}
	sh := g.shardFor(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.members[k]
}

// CredentialFor returns the credential record representing the (member,
// group) membership, creating it — with the current truth value — if it
// is not already interesting. Membership lookup returns a reference as a
// side effect (§4.7, rule 3).
func (g *Groups) CredentialFor(member, group string) Ref {
	k := groupKey{member, group}
	sh := g.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ref, ok := sh.interesting[k]; ok {
		if _, err := g.st.Lookup(ref); err == nil {
			return ref
		}
		delete(sh.interesting, k)
	}
	s := False
	if sh.members[k] {
		s = True
	}
	ref := g.st.NewFact(s)
	sh.interesting[k] = ref
	return ref
}

// Compact drops hash entries whose records have been garbage collected.
func (g *Groups) Compact() {
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.Lock()
		for k, ref := range sh.interesting {
			if _, err := g.st.Lookup(ref); err != nil {
				delete(sh.interesting, k)
			}
		}
		sh.mu.Unlock()
	}
}
