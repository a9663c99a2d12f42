// Sharding benchmarks (E34): the revocation-storm throughput of the
// credential-record graph partitioned over 1/2/4/8 shards
// (credrec.ShardedStore), and tree versus flat dissemination of a
// notification burst to 2^10 watchers (bus.Tree + ForwardBatch). Run
// with `-cpu 1,4,8`; `make bench-shard` prints the suite as test2json
// (BENCH_10.json is its PR 10 recording, frozen) and EXPERIMENTS.md E34
// records the numbers.
//
// Cascade scaling comes from per-shard write serialisation — a
// monolithic store funnels every cascade through one writer lock, the
// sharded store runs one writer per shard. The win needs real cores:
// on a single-CPU host the 1/2/4/8 rows measure the routing layer's
// overhead instead (they should be ~flat), because timesliced writers
// never actually contend. The dissemination pair is core-independent:
// it times the origin's blocking cost (n−1 sends flat, k sends tree),
// which is a property of the topology, not the scheduler.
package benchmarks

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"oasis/internal/bus"
	"oasis/internal/clock"
	"oasis/internal/credrec"
	"oasis/internal/event"
	"oasis/internal/value"
)

// buildShardedGraph populates a sharded store with groups of one fact
// feeding a chain of depth derived records. Derived records are placed
// on their first parent's shard, so each chain cascades entirely
// within one shard — the locality the first-parent placement rule buys.
func buildShardedGraph(b *testing.B, shards, groups, depth int) (*credrec.ShardedStore, []credrec.Ref) {
	b.Helper()
	names := make([]string, shards)
	for i := range names {
		names[i] = fmt.Sprintf("s%02d", i)
	}
	ss, err := credrec.NewShardedStore(names, 0)
	if err != nil {
		b.Fatal(err)
	}
	facts := make([]credrec.Ref, groups)
	for g := range facts {
		fact := ss.NewFact(credrec.True)
		facts[g] = fact
		parent := fact
		for d := 0; d < depth; d++ {
			parent = ss.NewDerived(credrec.OpAnd, credrec.Of(parent))
		}
	}
	return ss, facts
}

func benchShardCascade(b *testing.B, shards int) {
	const groups, depth = 1024, 8
	ss, facts := buildShardedGraph(b, shards, groups, depth)
	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			g := facts[next.Add(1)%groups]
			// One full down-up flap: 2 cascades of `depth` transitions.
			if err := ss.SetState(g, credrec.False); err != nil {
				b.Fatal(err)
			}
			if err := ss.SetState(g, credrec.True); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkShardCascade1(b *testing.B) { benchShardCascade(b, 1) }
func BenchmarkShardCascade2(b *testing.B) { benchShardCascade(b, 2) }
func BenchmarkShardCascade4(b *testing.B) { benchShardCascade(b, 4) }
func BenchmarkShardCascade8(b *testing.B) { benchShardCascade(b, 8) }

// benchSink terminates one watcher: relays (tree mode), then adds the
// burst's sequence coverage to the shared storm counter. The counter
// is cumulative across iterations, so in-flight stragglers from a
// previous burst are counted, never lost — the waiter just spins until
// total coverage reaches watchers × storm × iterations.
type benchSink struct {
	d     *bus.Disseminator // nil for flat fan-out targets
	root  string
	total *atomic.Int64
}

func (s *benchSink) Call(from, op string, arg any) (any, error) { return nil, nil }
func (s *benchSink) Deliver(n event.Notification) {
	s.DeliverBatch([]event.Notification{n})
}
func (s *benchSink) DeliverBatch(notes []event.Notification) {
	if s.d != nil {
		s.d.Forward(s.root, notes)
	}
	covered := int64(0)
	for _, n := range notes {
		covered += 1 + int64(n.Coalesced)
	}
	s.total.Add(covered)
}

// awaitCoverage spins until the storm counter reaches target; the
// deliveries complete on other goroutines within microseconds.
func awaitCoverage(total *atomic.Int64, target int64) {
	for total.Load() < target {
		runtime.Gosched()
	}
}

// stormNotes builds one revocation burst: notesPerStorm Modified events
// across distinct records, sequenced on one session.
func stormNotes(origin string, n int) []event.Notification {
	notes := make([]event.Notification, n)
	for i := range notes {
		notes[i] = event.Notification{
			Source:    origin,
			SessionID: 1,
			Seq:       uint64(i + 1),
			Event: event.New(benchModifiedEvent,
				value.Str(fmt.Sprintf("ref-%d", i)), value.Int(1), value.Int(1)),
		}
	}
	return notes
}

const (
	stormWatchers = 1024
	stormSize     = 16
)

// The dissemination pair measures the origin's blocking cost to get a
// revocation storm to 2^10 watchers — the resource the tree exists to
// relieve (§4.9 fan-out): a flat origin must perform n−1 sends itself
// before it can do anything else, a tree origin performs k and the
// relays carry the rest. Both use the same per-edge ForwardBatch
// machinery, so the comparison isolates the topology. Full delivery is
// awaited outside the timed region in both benchmarks (for flat the
// await is trivially satisfied — ForwardBatch delivers synchronously).
//
// BenchmarkFlatDisseminate is the baseline: the origin sends the burst
// to every watcher point-to-point.
func BenchmarkFlatDisseminate(b *testing.B) {
	net := bus.NewNetwork(clock.NewVirtual(time.Unix(0, 0)))
	origin := "origin"
	var total atomic.Int64
	names := make([]string, stormWatchers)
	if err := net.Register(origin, &benchSink{total: new(atomic.Int64)}); err != nil {
		b.Fatal(err)
	}
	for i := range names {
		names[i] = fmt.Sprintf("w%04d", i)
		if err := net.Register(names[i], &benchSink{total: &total}); err != nil {
			b.Fatal(err)
		}
	}
	notes := stormNotes(origin, stormSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, to := range names {
			net.ForwardBatch(origin, to, notes)
		}
		b.StopTimer()
		awaitCoverage(&total, int64(i+1)*stormWatchers*stormSize)
		b.StartTimer()
	}
}

// BenchmarkTreeDisseminate disseminates the same burst over a fanout-8
// tree: the origin blocks for 8 sends, interior watchers relay to
// their own children on separate goroutines, and the storm's tail is
// awaited untimed before the next iteration begins.
func BenchmarkTreeDisseminate(b *testing.B) {
	net := bus.NewNetwork(clock.NewVirtual(time.Unix(0, 0)))
	origin := "origin"
	members := make([]string, stormWatchers+1)
	members[0] = origin
	for i := 1; i < len(members); i++ {
		members[i] = fmt.Sprintf("w%04d", i-1)
	}
	tree, err := bus.NewTree(members, 8)
	if err != nil {
		b.Fatal(err)
	}
	var total atomic.Int64
	sinks := make([]*benchSink, 0, stormWatchers)
	for _, m := range members {
		s := &benchSink{root: origin, total: &total}
		if m == origin {
			s.total = new(atomic.Int64) // the root receives nothing
		} else {
			s.d = bus.NewDisseminator(net, tree, m, true)
			sinks = append(sinks, s)
		}
		if err := net.Register(m, s); err != nil {
			b.Fatal(err)
		}
	}
	od := bus.NewDisseminator(net, tree, origin, true)
	notes := stormNotes(origin, stormSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		od.Broadcast(notes)
		b.StopTimer()
		awaitCoverage(&total, int64(i+1)*stormWatchers*stormSize)
		b.StartTimer()
	}
	b.StopTimer()
	od.Wait()
	for _, s := range sinks {
		s.d.Wait()
	}
}
