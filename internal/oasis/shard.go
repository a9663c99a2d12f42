package oasis

import (
	"fmt"
	"sync"

	"oasis/internal/bus"
	"oasis/internal/credrec"
)

// Sharded operation: a set of oasisd daemons partitions the credential
// record graph by consistent hashing (internal/credrec.Ring decides
// placement, internal/credrec.ShardedStore seals the owning shard into
// every reference). At the service layer the shards cooperate through
// two operations on the existing inter-service interface:
//
//   - "shardwatch": a peer asks the owner of a record to notify it of
//     state changes (the cross-shard cascade edge, §4.9 applied between
//     shards of one logical service rather than between services).
//   - "treeforward": the owner pushes those changes — and its liveness —
//     down a deterministic k-ary dissemination tree (bus.Tree) instead
//     of calling every watcher point-to-point. Each member relays to
//     its own children, so the origin pays k sends instead of n−1 and a
//     revocation storm reaches n members in ⌈log_k n⌉ hops.
//
// A severed tree edge starves exactly the subtree below it; the
// starved members' suspicion machines (§4.10) degrade the origin to
// Suspect/Failed exactly as for any silent source, and recovery after
// heal is the ordinary resync protocol straight to the origin — tree
// repair needs no protocol of its own (docs/SHARDING.md).

// ShardWatchArg subscribes the calling shard to state changes of the
// listed records (which the callee owns). The reply is a ResyncReply
// carrying each record's current authoritative state, so the caller
// can seed its surrogates in the same round trip.
type ShardWatchArg struct {
	Refs []credrec.Ref
}

// TreeForwardArg is one hop of a dissemination-tree burst. Origin is
// the shard whose records the edges describe (and whose liveness the
// burst attests); Root names the tree the burst travels down — always
// the origin's own tree, carried explicitly so every relay computes
// the same children without coordination. Pressure is the origin's
// notification backlog, piggybacked so every member can aggregate
// cluster-wide backpressure (ClusterPendingNotifications).
//
// Each edge is the origin's authoritative state for a record that peers
// hold surrogates of; an empty Edges slice is a tree heartbeat: pure
// liveness + pressure.
type TreeForwardArg struct {
	Origin   string
	Root     string
	Edges    []ResyncEntry
	Pressure int
}

// shardCluster is the service's view of the shard ring it joined.
type shardCluster struct {
	tree *bus.Tree

	mu       sync.Mutex
	watched  map[uint64]bool // local records some peer shardwatches
	pressure map[string]int  // peer -> last piggybacked backlog
}

// JoinShardRing places the service in a shard cluster: members must
// include the service's own name, and every member must join with the
// same list (the tree, like the ring, is a pure function of it).
// Fanout <= 0 selects bus.DefaultTreeFanout.
func (s *Service) JoinShardRing(members []string, fanout int) error {
	if s.net == nil {
		return fmt.Errorf("oasis: no network to join a shard ring on")
	}
	t, err := bus.NewTree(members, fanout)
	if err != nil {
		return err
	}
	self := false
	for _, m := range t.Members() {
		if m == s.name {
			self = true
			break
		}
	}
	if !self {
		return fmt.Errorf("oasis: service %s is not a member of shard ring %v", s.name, members)
	}
	s.cluster.Store(&shardCluster{
		tree:     t,
		watched:  make(map[uint64]bool),
		pressure: make(map[string]int),
	})
	return nil
}

// ShardRingMembers returns the sorted shard-ring member list, or nil
// when the service has not joined a ring.
func (s *Service) ShardRingMembers() []string {
	c := s.cluster.Load()
	if c == nil {
		return nil
	}
	return c.tree.Members()
}

// handleShardWatch serves the owner side of a cross-shard edge: each
// record is remembered as shard-watched — the tree, not a session, is
// what carries its changes, so there is no caller to remember — and its
// current state reported, so the caller seeds its surrogate from the
// same snapshot. A record that no longer exists (revoked and swept)
// still reports as permanently False — revocation is forever.
func (s *Service) handleShardWatch(from string, a ShardWatchArg) (reply ResyncReply, err error) {
	c := s.cluster.Load()
	if c == nil {
		return reply, fmt.Errorf("oasis: %s is not in a shard ring", s.name)
	}
	reply.Entries, err = s.subscribeThenRead(nil, a.Refs, func(ref credrec.Ref) error {
		c.mu.Lock()
		c.watched[ref.Uint64()] = true
		c.mu.Unlock()
		return nil
	}, nil)
	return reply, err
}

// ImportShardRecord wires a surrogate for a record owned by another
// shard: one shardwatch round trip subscribes this shard and returns
// the authoritative state, which seeds (or refreshes) a local external
// record sourced from the owner. Future changes arrive down the
// owner's dissemination tree; the owner's silence degrades the
// surrogate through the ordinary suspicion machine.
func (s *Service) ImportShardRecord(owner string, ref credrec.Ref) (credrec.Ref, error) {
	if s.net == nil {
		return credrec.Ref{}, fmt.Errorf("oasis: no network")
	}
	// As in validateForeign, the row is there before the question is
	// asked: an edge racing the reply down the tree finds it.
	local, created := s.surrogateFor(owner, ref)
	res, err := s.net.Call(s.name, owner, "shardwatch", ShardWatchArg{Refs: []credrec.Ref{ref}})
	reply, ok := res.(ResyncReply)
	if err == nil && (!ok || len(reply.Entries) != 1) {
		err = fmt.Errorf("oasis: bad shardwatch reply from %s", owner)
	}
	if err != nil {
		if created {
			s.abandonSurrogate(owner, ref, local)
		}
		return credrec.Ref{}, err
	}
	// Applied even on reuse: the surrogate may predate a change the
	// subscription only now starts covering.
	e := reply.Entries[0]
	s.applyRemote(owner, ref, e.State, e.Permanent)
	s.receiver.ObserveSource(owner, s.clk.Now())
	return local, nil
}

// handleTreeForward is one relay step: observe the origin's liveness,
// cache its piggybacked backlog, apply the edges to any local
// surrogates — a relay without an import just passes them along —
// inside a notification batch, so downstream watchers of records
// derived from them see one coalesced burst, then forward the
// burst unchanged to this member's children in the origin's tree. A
// child behind a severed link is skipped — its whole subtree starves,
// which its suspicion machinery will notice and resync will repair.
func (s *Service) handleTreeForward(from string, a TreeForwardArg) error {
	c := s.cluster.Load()
	if c == nil {
		return fmt.Errorf("oasis: %s is not in a shard ring", s.name)
	}
	if a.Origin != s.name {
		s.receiver.ObserveSource(a.Origin, s.clk.Now())
		c.mu.Lock()
		c.pressure[a.Origin] = a.Pressure
		c.mu.Unlock()
		if len(a.Edges) > 0 {
			_ = s.batchNotify(func() error {
				for _, e := range a.Edges {
					s.applyRemote(a.Origin, e.Ref, e.State, e.Permanent)
				}
				return nil
			})
		}
		// Hearing from a degraded origin is the partition-heal signal:
		// resync now rather than waiting for the next suspicion tick,
		// because the edges lost during the silence may have been
		// revocations this burst does not repeat.
		if s.opts.AutoResync && s.SourceStatus(a.Origin) != SourceAlive {
			s.tryResync(a.Origin)
		}
	}
	s.forwardToChildren(c, a)
	return nil
}

// forwardToChildren relays a burst to this member's children in the
// tree rooted at a.Root. Edges within the burst are coalesced first —
// per tree edge, with the Modified-event rules (last writer wins per
// record, permanent False sticky) — so a relay never amplifies a storm
// it received already-merged.
func (s *Service) forwardToChildren(c *shardCluster, a TreeForwardArg) {
	children := c.tree.Children(a.Root, s.name)
	if len(children) == 0 {
		return
	}
	a.Edges = coalesceShardEdges(a.Edges)
	for _, child := range children {
		// A severed link returns an error: the subtree below this child
		// misses the burst, by design — suspicion + resync repair it.
		if _, err := s.net.Call(s.name, child, "treeforward", a); err != nil {
			continue
		}
	}
}

// coalesceShardEdges merges a burst's edges per record: later edges
// supersede earlier ones, except that a permanent False — revocation
// is forever — is never replaced. Order of first appearance is kept,
// so relays stay deterministic.
func coalesceShardEdges(edges []ResyncEntry) []ResyncEntry {
	if len(edges) < 2 {
		return edges
	}
	out := edges[:0:0]
	at := make(map[uint64]int, len(edges))
	for _, e := range edges {
		k := e.Ref.Uint64()
		i, seen := at[k]
		if !seen {
			at[k] = len(out)
			out = append(out, e)
			continue
		}
		if out[i].Permanent && out[i].State == credrec.False {
			continue
		}
		out[i] = e
	}
	return out
}

// shardNotify forwards one watched record's change down this shard's
// own dissemination tree. Called from the store's change callback with
// no locks held (drain fires outside store locks); the synchronous
// relay chain below recurses at most the tree's depth.
func (s *Service) shardNotify(ref credrec.Ref, st credrec.State, permanent bool) {
	c := s.cluster.Load()
	if c == nil {
		return
	}
	c.mu.Lock()
	watched := c.watched[ref.Uint64()]
	c.mu.Unlock()
	if !watched {
		return
	}
	s.forwardToChildren(c, TreeForwardArg{
		Origin:   s.name,
		Root:     s.name,
		Edges:    []ResyncEntry{{Ref: ref, State: st, Permanent: permanent}},
		Pressure: s.localPressure(),
	})
}

// ShardHeartbeatTick asserts this shard's liveness (and backlog) to
// the cluster: an empty-edge burst down its own tree. HeartbeatTick
// calls it automatically; a service outside any ring skips it.
func (s *Service) ShardHeartbeatTick() {
	c := s.cluster.Load()
	if c == nil {
		return
	}
	s.forwardToChildren(c, TreeForwardArg{
		Origin:   s.name,
		Root:     s.name,
		Pressure: s.localPressure(),
	})
}

// localPressure is this member's own notification backlog: broker
// outboxes plus the network's delay queue and open batch buffers.
func (s *Service) localPressure() int {
	p := s.broker.PendingNotifications()
	if s.net != nil {
		p += s.net.PendingNotifications()
	}
	return p
}

// ClusterPendingNotifications aggregates notification backpressure
// across the shard ring: this member's own backlog plus the last
// backlog each peer piggybacked on a treeforward. Gateways shed load
// (503) on this figure instead of the local one, so a storm drowning
// one shard sheds at every shard's front door. Peers declared Failed
// stop contributing (setSourceState clears their entry) — a dead
// shard's stale claim must not wedge the cluster read-only.
func (s *Service) ClusterPendingNotifications() int {
	p := s.localPressure()
	c := s.cluster.Load()
	if c == nil {
		return p
	}
	c.mu.Lock()
	for peer, v := range c.pressure {
		if peer != s.name {
			p += v
		}
	}
	c.mu.Unlock()
	return p
}
