package credrec

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring over a set of shard names. Each member
// owns `replicas` virtual nodes placed by hashing "name#i"; a key is
// owned by the member whose virtual node is the first at or clockwise
// of the key's hash. Placement is a pure function of (members,
// replicas, key), so every participant that builds a ring from the same
// member list routes identically — there is no coordination protocol.
//
// The consistent-hashing property is what makes the ring the right
// join/rebalance story for the sharded store: adding one member to an
// n-member ring moves only ~1/(n+1) of the key space, and every key
// that does not move keeps its owner (ring_test.go asserts both). The
// sharded store additionally seals the owning shard into each record
// reference at allocation time (see sharded.go), so even the keys that
// do move on a join only change where *future* records are placed —
// resolution of existing references never consults the ring.
type Ring struct {
	replicas int
	members  []string // sorted, deduplicated
	vnodes   []vnode  // sorted by hash
}

type vnode struct {
	hash  uint64
	owner int // index into members
}

// DefaultRingReplicas is the virtual-node count used when NewRing is
// given replicas <= 0; 64 per member keeps the maximum/mean ownership
// ratio under ~1.3 for small member counts.
const DefaultRingReplicas = 64

// NewRing builds a ring over the given members. Members are sorted and
// deduplicated, so any permutation of the same set yields an identical
// ring. An empty member list is rejected.
func NewRing(members []string, replicas int) (*Ring, error) {
	if replicas <= 0 {
		replicas = DefaultRingReplicas
	}
	seen := make(map[string]bool, len(members))
	var sorted []string
	for _, m := range members {
		if m == "" {
			return nil, fmt.Errorf("credrec: empty ring member name")
		}
		if !seen[m] {
			seen[m] = true
			sorted = append(sorted, m)
		}
	}
	if len(sorted) == 0 {
		return nil, fmt.Errorf("credrec: ring needs at least one member")
	}
	sort.Strings(sorted)
	r := &Ring{replicas: replicas, members: sorted}
	r.vnodes = make([]vnode, 0, len(sorted)*replicas)
	for i, m := range sorted {
		for v := 0; v < replicas; v++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s#%d", m, v)
			// FNV of short, similar strings clusters; the splitmix
			// finalizer spreads the vnodes over the whole space.
			r.vnodes = append(r.vnodes, vnode{hash: mix64(h.Sum64()), owner: i})
		}
	}
	// Ties (hash collisions between vnodes) break by member order, then
	// replica order via stable sort input order — deterministic either way.
	sort.Slice(r.vnodes, func(i, j int) bool {
		if r.vnodes[i].hash != r.vnodes[j].hash {
			return r.vnodes[i].hash < r.vnodes[j].hash
		}
		return r.vnodes[i].owner < r.vnodes[j].owner
	})
	return r, nil
}

// Members returns the sorted member list (not a copy the caller may
// mutate — treat as read-only).
func (r *Ring) Members() []string { return r.members }

// mix64 is the splitmix64 finalizer: allocation keys are small sequential
// integers, and binary-searching them raw would put every key in the
// same arc between two vnodes.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// OwnerIndex returns the index (into Members) of the member owning key.
func (r *Ring) OwnerIndex(key uint64) int {
	h := mix64(key)
	i := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= h })
	if i == len(r.vnodes) {
		i = 0 // wrap: the first vnode clockwise of the top of the space
	}
	return r.vnodes[i].owner
}
