package credrec

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// FuzzJournalReplay hammers the recovery path with arbitrary byte
// streams. The invariants: Replay never panics, never loops, and for
// every input either returns a well-formed store or a wrapped
// ErrJournalCorrupt — and whatever store it returns must itself
// survive a journal round trip (replaying what a journaled Store journals
// from the recovered state reproduces it) and be safe to open a sharded
// store over.
func FuzzJournalReplay(f *testing.F) {
	// Golden seeds: real journals produced by a journaled Store.
	seed := func(ops func(*Store)) []byte {
		var journal bytes.Buffer
		ls := NewJournaledStore(&journal)
		ops(ls)
		if err := ls.Sync(); err != nil {
			f.Fatal(err)
		}
		ls.Close()
		return journal.Bytes()
	}
	full := seed(func(ls *Store) {
		login := ls.NewExternal("login", True)
		fact := ls.NewFact(True)
		member := ls.NewDerived(OpAnd, Of(login), Of(fact))
		guard := ls.NewDerived(OpNor, Not(member))
		_ = ls.MakePermanent(fact)
		_ = ls.MarkDirectUse(member)
		_ = ls.MarkNotify(guard)
		_ = ls.MarkAutoRevoke(member)
		_ = ls.SetState(login, Unknown)
		_ = ls.Invalidate(fact)
		ls.MarkSourceUnknown("login")
		ls.MarkSourceFailsafe("login")
		ls.Sweep()
	})
	f.Add(full)
	f.Add(full[:len(full)-3]) // torn tail
	f.Add(seed(func(ls *Store) {}))
	f.Add(seed(func(ls *Store) { ls.NewFact(True) }))
	// A shard's journal holding a bridge: what OpenShardedStore rebuilds
	// its edge table from (this store as shard "A" of ring A, B) — one a
	// sharded store could have written, one it could not.
	f.Add(seed(func(ls *Store) {
		br := ls.NewExternal(bridgeName("B", Ref{Index: 1<<shardIDShift | 5, Magic: 1}), True)
		_ = ls.MarkDirectUse(ls.NewDerived(OpAnd, Of(br)))
	}))
	f.Add(seed(func(ls *Store) { ls.NewExternal("shard:B#0x5", True) }))
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00, 0x00, 0x00, 0x00, 0x01}) // 1-byte record, bad CRC
	f.Add([]byte("gibberish text journal\nfact 2\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Replay(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrJournalCorrupt) {
				t.Fatalf("Replay error %v does not wrap ErrJournalCorrupt", err)
			}
			return
		}
		// The recovered store is internally consistent: its own journal
		// round-trips. Re-journal a mutation on top to exercise the
		// recovered allocator too.
		var journal bytes.Buffer
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("recovered store is not usable: %v", r)
				}
			}()
			var snap bytes.Buffer
			if err := st.WriteSnapshot(&snap); err != nil {
				t.Fatalf("snapshotting recovered store: %v", err)
			}
			st2, err := ReadSnapshot(bytes.NewReader(snap.Bytes()))
			if err != nil {
				t.Fatalf("reloading recovered store's snapshot: %v", err)
			}
			ls := st2
			ls.StartJournal(writerSink{&journal}, JournalOptions{})
			defer ls.Close()
			ls.NewFact(True)
			ls.Sweep()
			if err := ls.Sync(); err != nil {
				t.Fatal(err)
			}
			if _, _, err := ReplayInto(st, bytes.NewReader(journal.Bytes()), true); err != nil {
				t.Fatalf("tail journaled from recovered state does not replay onto it: %v", err)
			}
			if !bytes.Equal(st.Image(), ls.Image()) {
				t.Fatal("recovered store diverged from its own journal round trip")
			}
			// The replayed store is also what a durable sharded store is
			// opened over: whatever sources the journal named, the open
			// refuses or yields a store whose bridges are resynchronised
			// — here against an empty sibling, so none stays valid
			// unless the journal itself made it final.
			ring, err := NewRing([]string{"A", "B"}, 4)
			if err != nil {
				t.Fatal(err)
			}
			ss, err := OpenShardedStore(ring, []*Store{st, NewStore()})
			if err != nil {
				return
			}
			if n := ss.nEdges.Load(); n != 0 {
				t.Fatalf("%d edges kept to a shard that holds no records", n)
			}
			for si := range st.shards {
				for _, sl := range st.shards[si].slots {
					if r := sl.rec; r != nil && strings.HasPrefix(r.external, bridgePrefix) && r.sp.Load() == uint32(True) {
						t.Fatalf("bridge %v valid and not final beneath a parent its shard does not hold", r.ref)
					}
				}
			}
		}()
	})
}
