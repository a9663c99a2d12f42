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

// TestRemoteStateEntryPointsAgree drives the two ways an issuer's
// assertion about a record reaches its surrogate — a Modified event
// through the receiver and a resync snapshot; the validate reply is
// applied as the first of them — through every (state, permanent) pair
// and requires the same outcome from each: the asserted state, frozen
// when the issuer calls it final
// (§4.8), a row that leaves the table exactly when the state is final,
// and a permanent False that no later assertion revives (§4.6).
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
	seq := uint64(0)
	entryPoints := []struct {
		name  string
		apply func(remote credrec.Ref, st credrec.State, perm bool)
	}{
		{"modified", func(remote credrec.Ref, st credrec.State, perm bool) {
			p := int64(0)
			if perm {
				p = 1
			}
			// Any registration id: the watcher routes by source and record.
			seq++
			s.Deliver(event.Notification{Source: "Issuer", SessionID: 1, Seq: seq, RegID: 1000 + seq,
				Event: event.New(ModifiedEvent, value.Str(refString(remote)), value.Int(int64(st)), value.Int(p))})
		}},
		{"resync", func(remote credrec.Ref, st credrec.State, perm bool) {
			issuer.reply = ResyncReply{Entries: []ResyncEntry{{Ref: remote, State: st, Permanent: perm}}}
			if err := s.ResyncSource("Issuer"); err != nil {
				t.Fatal(err)
			}
		}},
	}
	nextRemote := uint64(0)
	for _, st := range []credrec.State{credrec.True, credrec.False, credrec.Unknown} {
		for _, perm := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/permanent=%v", st, perm), func(t *testing.T) {
				for _, ep := range entryPoints {
					nextRemote++
					remote := credrec.RefFromUint64(nextRemote)
					local, created := s.surrogateFor("Issuer", remote)
					if !created {
						t.Fatalf("%s: row for a fresh remote record already there", ep.name)
					}
					if st == credrec.Unknown {
						// Start away from the state under test.
						_ = s.store.SetState(local, credrec.True)
					}

					ep.apply(remote, st, perm)
					if got, gotPerm, err := s.store.Resolve(local); err != nil || got != st || gotPerm != perm {
						t.Errorf("%s: surrogate resolves (%v, permanent=%v, %v), want (%v, permanent=%v)",
							ep.name, got, gotPerm, err, st, perm)
					}
					if _, held := s.extRecords["Issuer"][remote.Uint64()]; held == perm {
						t.Errorf("%s: row held = %v after permanent=%v", ep.name, held, perm)
					}
					if st != credrec.False || !perm {
						continue
					}
					// Revoked for good: nothing arriving later, by any
					// route, brings the record back.
					for _, later := range entryPoints {
						for _, laterPerm := range []bool{false, true} {
							later.apply(remote, credrec.True, laterPerm)
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
