package oasis

import (
	"fmt"
	"testing"
	"time"

	"oasis/internal/bus"
	"oasis/internal/clock"
	"oasis/internal/credrec"
	"oasis/internal/event"
	"oasis/internal/value"
)

// resyncStub is an issuer that answers resync with whatever the test
// put in reply.
type resyncStub struct{ reply ResyncReply }

func (r *resyncStub) Call(from, op string, arg any) (any, error) {
	if op != "resync" {
		return nil, fmt.Errorf("resyncStub: unexpected %q", op)
	}
	return r.reply, nil
}

func (r *resyncStub) Deliver(event.Notification) {}

// TestRemoteStateEntryPointsAgree drives the three ways an issuer's
// assertion about a record reaches its surrogate — a Modified event, a
// shard-tree edge, a resync snapshot — through every (state, permanent)
// pair and requires the same outcome from each: the asserted state,
// frozen when the issuer calls it final (§4.8), and a permanent False
// that no later assertion revives (§4.6).
func TestRemoteStateEntryPointsAgree(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	net := bus.NewNetwork(clk)
	s, err := New("Watcher", clk, net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	issuer := &resyncStub{}
	if err := net.Register("Issuer", issuer); err != nil {
		t.Fatal(err)
	}
	entryPoints := []struct {
		name  string
		apply func(local, remote credrec.Ref, st credrec.State, perm bool)
	}{
		{"modified", func(local, remote credrec.Ref, st credrec.State, perm bool) {
			p := int64(0)
			if perm {
				p = 1
			}
			s.applyModified(local, event.New(ModifiedEvent,
				value.Str(refString(remote)), value.Int(int64(st)), value.Int(p)))
		}},
		{"shardedge", func(local, remote credrec.Ref, st credrec.State, perm bool) {
			s.applyShardEdge("Issuer", ResyncEntry{Ref: remote, State: st, Permanent: perm})
		}},
		{"resync", func(local, remote credrec.Ref, st credrec.State, perm bool) {
			issuer.reply = ResyncReply{Entries: []ResyncEntry{{Ref: remote, State: st, Permanent: perm}}}
			if err := s.ResyncSource("Issuer"); err != nil {
				t.Fatal(err)
			}
		}},
	}
	s.extRecords = make(map[extKey]credrec.Ref)
	nextRemote := uint64(0)
	for _, st := range []credrec.State{credrec.True, credrec.False, credrec.Unknown} {
		for _, perm := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/permanent=%v", st, perm), func(t *testing.T) {
				for _, ep := range entryPoints {
					initial := credrec.True
					if st == credrec.True {
						initial = credrec.Unknown
					}
					local := s.store.NewExternal("Issuer", initial)
					nextRemote++
					remote := credrec.RefFromUint64(nextRemote)
					s.extRecords[extKey{source: "Issuer", ref: remote.Uint64()}] = local

					ep.apply(local, remote, st, perm)
					if got, gotPerm, err := s.store.Resolve(local); err != nil || got != st || gotPerm != perm {
						t.Errorf("%s: surrogate resolves (%v, permanent=%v, %v), want (%v, permanent=%v)",
							ep.name, got, gotPerm, err, st, perm)
					}
					if st != credrec.False || !perm {
						continue
					}
					// Revoked for good: nothing arriving later, by any
					// route, brings the record back.
					for _, later := range entryPoints {
						for _, laterPerm := range []bool{false, true} {
							later.apply(local, remote, credrec.True, laterPerm)
							if got, gotPerm, _ := s.store.Resolve(local); got != credrec.False || !gotPerm {
								t.Errorf("permanent False by %s revived by %s (permanent=%v): (%v, permanent=%v)",
									ep.name, later.name, laterPerm, got, gotPerm)
							}
						}
					}
				}
			})
		}
	}
}
