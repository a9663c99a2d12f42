package oasis

import (
	"fmt"
	"sync"
	"time"

	"oasis/internal/bus"
)

// Sharded operation: a set of oasisd daemons partitions the credential
// record graph by consistent hashing (internal/credrec.Ring decides
// placement, internal/credrec.ShardedStore seals the owning shard into
// every reference) and joins one ring. The ring carries one thing: each
// member's notification backlog, pushed down a deterministic k-ary tree
// (bus.Tree) by "treeforward", so a storm drowning one member sheds
// load at every member's front door (ClusterPendingNotifications).
//
// A record crosses between members the way it crosses between any two
// services: a flat watch (validate with Watch, or resync) and the
// issuer's Modified events and heartbeats on one broker session. The
// tree carries no verdict and no liveness. A relayed burst proves only
// that its last hop is up; the stream a record's changes travel on is
// the only one whose heartbeats say nothing was lost before them
// (§4.10, docs/SHARDING.md).

// TreeForwardArg is one hop of a backlog claim down the ring's tree.
// Origin is the member whose backlog Pressure is; Root names the tree
// the claim travels down — always the origin's own, carried explicitly
// so every relay computes the same children without coordination.
type TreeForwardArg struct {
	Origin   string
	Root     string
	Pressure int
}

// shardCluster is the service's view of the shard ring it joined.
type shardCluster struct {
	tree *bus.Tree

	mu       sync.Mutex
	pressure map[string]pressureClaim // origin -> its last backlog claim
}

// pressureClaim is one origin's backlog as last heard, and when.
type pressureClaim struct {
	backlog int
	heard   time.Time
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
	s.cluster.Store(&shardCluster{tree: t, pressure: make(map[string]pressureClaim)})
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

// handleTreeForward is one relay step: remember the origin's claim and
// when it was heard, then pass it on unchanged to this member's
// children in the origin's tree. It touches no suspicion state: hearing
// a relay is not hearing the origin.
func (s *Service) handleTreeForward(a TreeForwardArg) error {
	c := s.cluster.Load()
	if c == nil {
		return fmt.Errorf("oasis: %s is not in a shard ring", s.name)
	}
	if a.Origin != s.name {
		c.mu.Lock()
		c.pressure[a.Origin] = pressureClaim{backlog: a.Pressure, heard: s.clk.Now()}
		c.mu.Unlock()
	}
	s.forwardToChildren(c, a)
	return nil
}

// forwardToChildren relays a claim to this member's children in the
// tree rooted at a.Root. A severed link returns an error and the
// subtree below that child misses this claim; the next period's claim
// takes another chance, and a claim never heard again ages out.
func (s *Service) forwardToChildren(c *shardCluster, a TreeForwardArg) {
	for _, child := range c.tree.Children(a.Root, s.name) {
		_, _ = s.net.Call(s.name, child, "treeforward", a)
	}
}

// ShardHeartbeatTick pushes this member's backlog down its own tree.
// HeartbeatTick calls it every period; a service outside any ring
// skips it.
func (s *Service) ShardHeartbeatTick() {
	c := s.cluster.Load()
	if c == nil {
		return
	}
	s.forwardToChildren(c, TreeForwardArg{Origin: s.name, Root: s.name, Pressure: s.localPressure()})
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
// across the shard ring: this member's own backlog plus the last claim
// of every peer heard within the fail-safe budget (Options.
// FailsafeMissed heartbeat periods). Gateways shed load (503) on this
// figure instead of the local one, so a storm drowning one shard sheds
// at every shard's front door; a claim that stopped arriving — its
// origin dead or cut off — ages out rather than wedging the cluster
// read-only.
func (s *Service) ClusterPendingNotifications() int {
	p := s.localPressure()
	c := s.cluster.Load()
	if c == nil {
		return p
	}
	_, stale := s.silenceThresholds()
	now := s.clk.Now()
	c.mu.Lock()
	for _, claim := range c.pressure {
		if now.Sub(claim.heard) < stale {
			p += claim.backlog
		}
	}
	c.mu.Unlock()
	return p
}
