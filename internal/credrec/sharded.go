package credrec

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// ShardedStore partitions a credential-record graph across a set of
// per-shard Stores, routing every operation by reference. It implements
// the full Recorder surface, so the oasis service engine (and anything
// else written against Recorder) runs on a sharded graph unchanged. A
// shard is any Store — in memory or journaled — so a durable sharded
// store is this type over stores a storage.Engine recovered, one
// journal directory per shard (OpenShardedStore).
//
// # Reference layout
//
// The store cannot place a record "where its ref hashes to", because
// Stores allocate references internally; instead the owning shard id is
// sealed into the top shardIDBits of Ref.Index at allocation time.
// Routing Resolve/SetState/Sweep by ref is then an O(1) bit unpack with
// no ring lookup, and a reference stays resolvable forever even if the
// ring that placed it has since changed shape (docs/SHARDING.md).
//
// # Placement
//
// Leaf records (NewFact, NewExternal) are placed by consistent hashing
// of the store-wide allocation count, spreading independent subgraphs
// across shards. Derived records are placed on the shard of their first
// parent: a revocation cascade then runs inside one shard's writeMu in
// the common case, which is exactly what makes a revocation storm scale
// with the shard count (BenchmarkShardCascade, bench_test.go).
//
// # Cross-shard cascade edges
//
// When a derived record's parent lives on another shard, the parent
// grows a local *bridge* — an external surrogate record on the child's
// shard, named SurrogateName("shard:<owner>", parent) — and the parent
// itself is flagged Notify. The parent's change callback then fans the new
// state out to every bridge (outside all store locks, so cascades chain
// across any number of shards without lock-order hazards), and the
// child's shard propagates it locally. The name is all a journal or
// snapshot keeps of a bridge, and all that is needed: the
// edge table is rebuilt from it when recovered shards are opened, and
// ResyncShard then re-reads every parent, the same way a §4.10 resync
// restores a healed source.
//
// # Concurrency
//
// Each underlying Store keeps its own writeMu, so mutations of records
// on different shards proceed in parallel — the point of the exercise.
// ShardedStore itself adds one RWMutex guarding the cross-shard edge
// table; the change-callback hot path skips it entirely while no edges
// exist (atomic count), and edge fan-out copies the bridge list under a
// read lock and applies it after unlocking, so nested cascades re-enter
// freely.
//
// # Failure
//
// Journaled shards share one fail-stop latch: the first journal to fail
// makes every shard refuse entry-point mutations, the monolith's
// contract store-wide. Bridge fan-out alone still reaches a failed
// shard's memory, so a revocation acknowledged on a healthy shard is
// never left valid beneath it.
type ShardedStore struct {
	ring   *Ring
	names  []string
	stores []*Store

	// allocSeq mints the ring key for leaf placement. It counts every
	// allocation the shards make, so a reopened store resumes it from
	// the creation counters the shards persist.
	allocSeq atomic.Uint64

	change atomic.Pointer[ChangeFunc] // user observer (OnChange)
	halt   atomic.Pointer[error]      // the journaled shards' shared fail-stop latch

	// Cross-shard edge table: global parent ref -> bridge surrogates;
	// derivations on one shard share the first listed for it.
	nEdges atomic.Int64
	mu     sync.RWMutex
	edges  map[uint64][]bridgeLink
}

// bridgeLink is one bridge surrogate mirroring a remote parent.
type bridgeLink struct {
	shard int
	local Ref
}

// Shard-id packing in Ref.Index: the top shardIDBits carry the owning
// shard, the remaining bits are the shard-local index.
const (
	shardIDBits   = 6
	shardIDShift  = 32 - shardIDBits
	localIndexMax = 1<<shardIDShift - 1

	// MaxStoreShards is the most shards a ShardedStore supports (the
	// shard-id field width in packed references).
	MaxStoreShards = 1 << shardIDBits
)

// NewShardedStore builds an empty, in-memory sharded store over the
// named shards (order is canonicalised by the ring, so any permutation
// of the same names yields identical placement). replicas is the ring's
// virtual-node count per shard; <= 0 selects DefaultRingReplicas.
func NewShardedStore(names []string, replicas int) (*ShardedStore, error) {
	ring, err := NewRing(names, replicas)
	if err != nil {
		return nil, err
	}
	stores := make([]*Store, len(ring.Members()))
	for i := range stores {
		stores[i] = NewStore()
	}
	return OpenShardedStore(ring, stores)
}

// OpenShardedStore builds a sharded store over existing per-shard
// stores: stores[i] holds the shard named ring.Members()[i], empty or as
// recovery left it (replayed with no observer installed, so every
// cross-shard consequence was applied once, from its own shard's
// journal). The edge table is rebuilt from the bridge records the
// shards hold, and every edge is resynchronised before the store is
// returned: shards recovered to independent points of their histories
// come back with each bridge equal to its parent. A bridge name that
// does not parse, or names a parent this ring does not place on another
// shard, fails the open.
func OpenShardedStore(ring *Ring, stores []*Store) (*ShardedStore, error) {
	names := ring.Members()
	if len(names) > MaxStoreShards {
		return nil, fmt.Errorf("credrec: %d shards exceeds the %d-shard reference format", len(names), MaxStoreShards)
	}
	if len(stores) != len(names) {
		return nil, fmt.Errorf("credrec: %d stores for %d shards", len(stores), len(names))
	}
	ss := &ShardedStore{
		ring:   ring,
		names:  names,
		stores: stores,
		edges:  make(map[uint64][]bridgeLink),
	}
	for i, st := range stores {
		ss.allocSeq.Add(st.created.Load())
		if err := ss.adoptBridges(i); err != nil {
			return nil, err
		}
	}
	for i, st := range stores {
		i := i
		st.writeMu.Lock()
		if st.j != nil {
			st.j.halt = &ss.halt
		}
		st.onChange = func(local Ref, s State, perm bool) {
			g := ss.globalize(i, local)
			if ss.nEdges.Load() > 0 {
				ss.fanout(g.Uint64(), s, perm)
			}
			if f := ss.change.Load(); f != nil && *f != nil {
				(*f)(g, s, perm)
			}
		}
		st.writeMu.Unlock()
	}
	for _, name := range names {
		ss.ResyncShard(name)
	}
	return ss, nil
}

// adoptBridges registers the edges of the live bridges shard i holds. A
// final bridge has no edge.
func (ss *ShardedStore) adoptBridges(i int) (err error) {
	ss.stores[i].Externals(func(ref Ref, name string, final bool) {
		owner, parent, perr := ParseSurrogateName(name)
		pid := int(parent.Index >> shardIDShift)
		switch {
		case err != nil || !strings.HasPrefix(name, bridgePrefix):
		case perr != nil || pid >= len(ss.names) || pid == i || owner != bridgePrefix+ss.names[pid]:
			err = fmt.Errorf("credrec: shard %q record %v: %q names no bridge to another shard of this ring", ss.names[i], ref, name)
		case !final:
			ss.edges[parent.Uint64()] = append(ss.edges[parent.Uint64()], bridgeLink{shard: i, local: ref})
			ss.nEdges.Add(1)
		}
	})
	return err
}

// ShardStore exposes one shard's underlying store (tests, benchmarks,
// and per-shard image comparison).
func (ss *ShardedStore) ShardStore(i int) *Store { return ss.stores[i] }

// ShardOf unpacks the owning shard id from a reference.
func (ss *ShardedStore) ShardOf(ref Ref) int { return int(ref.Index >> shardIDShift) }

// bridgePrefix starts the source in a bridge's name:
// SurrogateName(bridgePrefix+<shard owning the parent>, parent).
const bridgePrefix = "shard:"

// globalize seals the owning shard into a shard-local reference. The
// zero Ref — a refused allocation — stays the zero Ref.
func (ss *ShardedStore) globalize(shard int, local Ref) Ref {
	if local == (Ref{}) {
		return local
	}
	if local.Index > localIndexMax {
		panic(fmt.Sprintf("credrec: shard %d local index %d overflows the packed reference format", shard, local.Index))
	}
	return Ref{Index: local.Index | uint32(shard)<<shardIDShift, Magic: local.Magic}
}

// resolveShard routes a global ref to (store, local ref); a shard id
// beyond the ring is a dangling reference (it can only come from a
// larger ring or a corrupted ref, and dangling is the fail-safe answer).
func (ss *ShardedStore) resolveShard(ref Ref) (*Store, Ref, error) {
	id := int(ref.Index >> shardIDShift)
	if id >= len(ss.stores) {
		return nil, Ref{}, ErrDangling
	}
	return ss.stores[id], Ref{Index: ref.Index & localIndexMax, Magic: ref.Magic}, nil
}

// pick counts one allocation and places it via the ring.
func (ss *ShardedStore) pick() int {
	return ss.ring.OwnerIndex(ss.allocSeq.Add(1))
}

// danglingLocal is a reference no store slot can ever match (the local
// index region is far beyond any allocation a test or deployment
// reaches before the packed format overflows first); passing it as a
// parent reproduces Store.NewDerived's broken-parent semantics —
// the child is born permanently false.
var danglingLocal = Ref{Index: localIndexMax, Magic: 0}

// --- Recorder: allocation ---

// NewFact creates a leaf fact on a ring-chosen shard.
func (ss *ShardedStore) NewFact(s State) Ref {
	i := ss.pick()
	return ss.globalize(i, ss.stores[i].NewFact(s))
}

// NewExternal creates a surrogate for a fact held by another service,
// on a ring-chosen shard. The bridges' prefix is refused (zero Ref): a
// foreign record under it would fail the next open.
func (ss *ShardedStore) NewExternal(source string, s State) Ref {
	if strings.HasPrefix(source, bridgePrefix) {
		return Ref{}
	}
	i := ss.pick()
	return ss.globalize(i, ss.stores[i].NewExternal(source, s))
}

// NewDerived creates a derived record on the shard of its first parent
// (cascade locality); parents on other shards are wired through bridge
// surrogates. A dangling parent — including one whose shard id is not
// on the ring — makes the child permanently false, exactly as in the
// single store.
func (ss *ShardedStore) NewDerived(op Op, parents ...Parent) Ref {
	owner, seq := -1, ss.allocSeq.Add(1)
	if len(parents) > 0 {
		if id := int(parents[0].Ref.Index >> shardIDShift); id < len(ss.stores) {
			owner = id
		}
	}
	if owner < 0 {
		owner = ss.ring.OwnerIndex(seq)
	}
	ownerStore := ss.stores[owner]
	localParents := make([]Parent, 0, len(parents))
	for _, p := range parents {
		pStore, pLocal, err := ss.resolveShard(p.Ref)
		if err != nil {
			localParents = append(localParents, Parent{Ref: danglingLocal, Negated: p.Negated})
			continue
		}
		if pStore == ownerStore {
			localParents = append(localParents, Parent{Ref: pLocal, Negated: p.Negated})
			continue
		}
		br, ok := ss.bridgeFor(owner, p.Ref, pStore, pLocal)
		if !ok {
			localParents = append(localParents, Parent{Ref: danglingLocal, Negated: p.Negated})
			continue
		}
		localParents = append(localParents, Parent{Ref: br, Negated: p.Negated})
	}
	return ss.globalize(owner, ownerStore.NewDerived(op, localParents...))
}

// bridgeFor returns (creating if needed) the bridge surrogate on shard
// `owner` mirroring the remote parent. Returns ok=false when the parent
// is dangling. The parent is flagged Notify so its change callback
// drives the bridge; after registering the edge the parent state is
// re-read and re-applied, closing the race where the parent changed
// between the initial read and the edge becoming visible to fan-out
// (re-applying a state the fan-out also delivered is idempotent). A
// permanent parent gets a permanent bridge and no edge.
func (ss *ShardedStore) bridgeFor(owner int, parentGlobal Ref, pStore *Store, pLocal Ref) (Ref, bool) {
	st, perm, err := pStore.Resolve(pLocal)
	if err != nil {
		return Ref{}, false
	}
	pid := int(parentGlobal.Index >> shardIDShift)
	parent := parentGlobal.Uint64()
	ownerStore := ss.stores[owner]

	ss.mu.RLock()
	br, ok := ss.bridgeOn(parent, owner)
	ss.mu.RUnlock()
	if ok {
		return br, true // alive: only a final bridge is ever swept, and its edge was retired when it became so
	}

	if !perm {
		if merr := pStore.MarkNotify(pLocal); merr != nil {
			return Ref{}, false // swept between Resolve and MarkNotify
		}
	}
	ss.allocSeq.Add(1)
	br = ownerStore.NewExternal(SurrogateName(bridgePrefix+ss.names[pid], parentGlobal), st)
	if perm {
		ss.retire(parent, st)
		ownerStore.mirror(br, st, perm)
		return br, true
	}

	ss.mu.Lock()
	if existing, ok := ss.bridgeOn(parent, owner); ok {
		// Lost a creation race; keep the winner. Ours has no children
		// and no other reference: dead, so the next Sweep frees it.
		ss.mu.Unlock()
		_ = ownerStore.Invalidate(br)
		return existing, true
	}
	ss.edges[parent] = append(ss.edges[parent], bridgeLink{shard: owner, local: br})
	ss.nEdges.Add(1)
	ss.mu.Unlock()

	// Close the registration race: a parent transition that drained
	// before the edge existed is re-read here; one that drains after
	// will see the edge. Dangling reads permanently false.
	if st2, perm2, _ := pStore.Resolve(pLocal); st2 != st || perm2 {
		if perm2 {
			ss.retire(parent, st2)
		}
		ownerStore.mirror(br, st2, perm2)
	}
	return br, true
}

// bridgeOn returns the bridge that derivations on shard share for
// parent: the first listed for that shard. Caller holds ss.mu.
func (ss *ShardedStore) bridgeOn(parent uint64, shard int) (Ref, bool) {
	for _, l := range ss.edges[parent] {
		if l.shard == shard {
			return l.local, true
		}
	}
	return Ref{}, false
}

// retire is called once a parent's value s is known to be final, before
// it is mirrored: the parent's edges are dropped — nothing more will be
// fanned out to its bridges. A bridge can never take back a final value
// other than False, so for one the parent's shard is synced first: it
// must not be able to lose, in a batch a crash cuts off, the record the
// bridge's shard is about to keep. A final False needs no such care — a
// dependent dead beneath a parent that came back is the safe side.
func (ss *ShardedStore) retire(parent uint64, s State) {
	ss.mu.Lock()
	n := len(ss.edges[parent])
	delete(ss.edges, parent)
	ss.nEdges.Add(int64(-n))
	ss.mu.Unlock()
	if s != False {
		_ = ss.stores[int(parent>>32)>>shardIDShift].Sync() // a failed journal has halted the store already
	}
}

// fanout applies a parent's new state to every bridge mirroring it. The
// bridge list is copied under the read lock and applied after release:
// applying re-enters stores (and, through their change callbacks, this
// method again for chained cross-shard cascades), which must happen
// with no ShardedStore lock held.
func (ss *ShardedStore) fanout(parent uint64, s State, perm bool) {
	ss.mu.RLock()
	links := append([]bridgeLink(nil), ss.edges[parent]...)
	ss.mu.RUnlock()
	if len(links) == 0 {
		return
	}
	if perm {
		ss.retire(parent, s)
	}
	for _, l := range links {
		ss.stores[l.shard].mirror(l.local, s, perm)
	}
}

// --- Recorder: transitions, flags ---

// route applies a by-reference mutation on the owning shard; an
// off-ring shard id is dangling.
func (ss *ShardedStore) route(ref Ref, apply func(*Store, Ref) error) error {
	st, local, err := ss.resolveShard(ref)
	if err != nil {
		return err
	}
	return apply(st, local)
}

// SetState routes to the owning shard.
func (ss *ShardedStore) SetState(ref Ref, s State) error {
	return ss.route(ref, func(st *Store, local Ref) error { return st.SetState(local, s) })
}

// Invalidate routes to the owning shard.
func (ss *ShardedStore) Invalidate(ref Ref) error { return ss.route(ref, (*Store).Invalidate) }

// MakePermanent routes to the owning shard.
func (ss *ShardedStore) MakePermanent(ref Ref) error { return ss.route(ref, (*Store).MakePermanent) }

// MarkDirectUse routes to the owning shard.
func (ss *ShardedStore) MarkDirectUse(ref Ref) error { return ss.route(ref, (*Store).MarkDirectUse) }

// MarkNotify routes to the owning shard.
func (ss *ShardedStore) MarkNotify(ref Ref) error { return ss.route(ref, (*Store).MarkNotify) }

// MarkAutoRevoke routes to the owning shard.
func (ss *ShardedStore) MarkAutoRevoke(ref Ref) error { return ss.route(ref, (*Store).MarkAutoRevoke) }

// --- Recorder: bulk source transitions ---

// MarkSourceUnknown degrades every external record from the source on
// every shard (§4.10).
func (ss *ShardedStore) MarkSourceUnknown(source string) int {
	n := 0
	for _, st := range ss.stores {
		n += st.MarkSourceUnknown(source)
	}
	return n
}

// MarkSourceFailsafe fails every external record from the source safe
// to False, on every shard (§6.8.4).
func (ss *ShardedStore) MarkSourceFailsafe(source string) int {
	n := 0
	for _, st := range ss.stores {
		n += st.MarkSourceFailsafe(source)
	}
	return n
}

// ResyncShard re-reads the authoritative state of every record the
// named shard owns that has bridges elsewhere, and fans it out again —
// the §4.10 resync protocol between shards, run over every shard when
// recovered stores are opened. The parent is flagged Notify again (the
// flag may have been in a batch its shard lost); a parent that is gone
// reads permanently false. Idempotent: re-applying current state is a
// no-op. Returns the number of parents re-read.
func (ss *ShardedStore) ResyncShard(name string) int {
	id := -1
	for i, n := range ss.names {
		if n == name {
			id = i
		}
	}
	var parents []uint64
	ss.mu.RLock()
	for parent := range ss.edges {
		if int(parent>>32)>>shardIDShift == id {
			parents = append(parents, parent)
		}
	}
	ss.mu.RUnlock()
	sort.Slice(parents, func(a, b int) bool { return parents[a] < parents[b] }) // recovery is reproducible
	for _, parent := range parents {
		_, local, _ := ss.resolveShard(RefFromUint64(parent))
		st, perm, _ := ss.stores[id].Resolve(local)
		if !perm {
			_ = ss.stores[id].MarkNotify(local) // fails only if the parent was swept since; the next pass reads that
		}
		ss.fanout(parent, st, perm)
	}
	return len(parents)
}

// --- Recorder: GC ---

// Sweep garbage-collects every shard. The edge table needs no pruning:
// a sweep frees a bridge or a bridged parent only once it is final, and
// its edges were retired when it became so.
func (ss *ShardedStore) Sweep() int {
	n := 0
	for _, st := range ss.stores {
		n += st.Sweep()
	}
	return n
}

// --- Recorder: read paths ---

// Lookup routes to the owning shard; an off-ring shard id is dangling.
func (ss *ShardedStore) Lookup(ref Ref) (State, error) {
	st, local, err := ss.resolveShard(ref)
	if err != nil {
		return False, err
	}
	return st.Lookup(local)
}

// Valid routes to the owning shard.
func (ss *ShardedStore) Valid(ref Ref) bool {
	st, local, err := ss.resolveShard(ref)
	if err != nil {
		return false
	}
	return st.Valid(local)
}

// Resolve routes to the owning shard; an off-ring shard id reads as
// permanently false, like any dangling reference.
func (ss *ShardedStore) Resolve(ref Ref) (State, bool, error) {
	st, local, err := ss.resolveShard(ref)
	if err != nil {
		return False, true, err
	}
	return st.Resolve(local)
}

// Externals visits the external records of every shard, globalised, in
// shard order. The bridges are the store's own business and are not
// visited.
func (ss *ShardedStore) Externals(visit func(ref Ref, name string, final bool)) {
	for i, st := range ss.stores {
		st.Externals(func(local Ref, name string, final bool) {
			if !strings.HasPrefix(name, bridgePrefix) {
				visit(ss.globalize(i, local), name, final)
			}
		})
	}
}

// --- Recorder: observation ---

// OnChange installs the change observer; it fires for Notify-flagged
// records on any shard, with globalised references.
func (ss *ShardedStore) OnChange(f ChangeFunc) {
	ss.change.Store(&f)
}

// Image renders every shard's image in shard-id order under a shard
// header: a deterministic fingerprint of the whole partitioned graph.
// Two sharded stores that evolved through the same logical history
// produce byte-identical images (the chaos suite compares them).
func (ss *ShardedStore) Image() []byte {
	var b bytes.Buffer
	for i, st := range ss.stores {
		fmt.Fprintf(&b, "-- shard %d %q\n", i, ss.names[i])
		b.Write(st.Image())
	}
	return b.Bytes()
}

// Live sums live records over every shard (bridges included — they are
// real records).
func (ss *ShardedStore) Live() int {
	n := 0
	for _, st := range ss.stores {
		n += st.Live()
	}
	return n
}
