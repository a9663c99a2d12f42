package credrec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"oasis/internal/bus"
)

// Store snapshots (docs/STORAGE.md "Snapshot format"). A snapshot is a
// complete, byte-deterministic image of a store's internal state — not
// just the record values but everything the allocator's determinism
// depends on: slot magics (including freed slots, so references are
// never reissued), per-shard free lists in exact reuse order, and the
// round-robin allocation counter. ReadSnapshot therefore yields a
// store whose *future* behaviour is identical to the original's: the
// next NewFact mints the same Ref, the next Sweep frees the same
// slots. That is what lets the journal be truncated at a snapshot —
// replaying the tail into the snapshot reproduces the live store
// exactly, O(live records + tail) instead of O(history).
//
// Layout: an 8-byte magic, a payload of bus-codec varints/strings, and
// a trailing CRC-32C of the payload. The whole snapshot is staged in
// memory on both paths, which keeps the checksum trivial and is fine
// at the record counts one daemon holds.

// snapMagic identifies snapshot files; the trailing byte is a format
// version.
var snapMagic = [8]byte{'O', 'A', 'S', 'N', 'A', 'P', '0', '1'}

// ErrSnapshotCorrupt reports an unreadable snapshot image.
var ErrSnapshotCorrupt = fmt.Errorf("credrec: snapshot corrupt")

// maxSnapshotSlots bounds per-shard slot counts while decoding an
// untrusted snapshot (2^28 slots ≈ 4 GiB of records; far beyond one
// daemon).
const maxSnapshotSlots = 1 << 28

// WriteSnapshot writes a complete image of the store to w. Callers
// must ensure no mutation is in flight — the Store.Snapshot barrier,
// or exclusive ownership of the store.
func (st *Store) WriteSnapshot(w io.Writer) error {
	st.writeMu.Lock()
	defer st.writeMu.Unlock()

	var payload bytes.Buffer
	e := bus.NewWireEnc(&payload)
	e.PutUvarint(st.nalloc)
	e.PutUvarint(uint64(st.totalFree))
	e.PutUvarint(st.created.Load())
	e.PutUvarint(st.deleted.Load())
	for si := range st.shards {
		sh := &st.shards[si]
		e.PutUvarint(uint64(len(sh.slots)))
		for p := range sh.slots {
			sl := &sh.slots[p]
			e.PutUvarint(uint64(sl.magic))
			e.PutBool(sl.rec != nil)
			if sl.rec == nil {
				continue
			}
			r := sl.rec
			var flags byte
			if r.permanent {
				flags |= 1
			}
			if r.notify {
				flags |= 2
			}
			if r.directUse {
				flags |= 4
			}
			if r.autoRev {
				flags |= 8
			}
			e.PutByte(flags)
			e.PutUvarint(uint64(r.op))
			e.PutUvarint(uint64(r.state))
			e.PutString(r.external)
			e.PutUvarint(uint64(r.nParents))
			e.PutUvarint(uint64(r.effTrue))
			e.PutUvarint(uint64(r.effFalse))
			e.PutUvarint(uint64(r.effUnk))
			e.PutUvarint(uint64(r.permTrue))
			e.PutUvarint(uint64(r.permFalse))
			e.PutUvarint(uint64(len(r.children)))
			for _, cl := range r.children {
				e.PutUvarint(cl.ref.Uint64())
				e.PutBool(cl.negated)
			}
		}
		e.PutUvarint(uint64(len(sh.free)))
		for _, idx := range sh.free {
			e.PutUvarint(uint64(idx))
		}
	}

	if _, err := w.Write(snapMagic[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.Checksum(payload.Bytes(), crcJournal))
	_, err := w.Write(sum[:])
	return err
}

// ReadSnapshot rebuilds a store from a snapshot image. The returned
// store is ready for tail replay (ReplayIntoOffset) and further mutation.
func ReadSnapshot(r io.Reader) (*Store, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(raw) < len(snapMagic)+4 {
		return nil, fmt.Errorf("%w: %d bytes is too short", ErrSnapshotCorrupt, len(raw))
	}
	if !bytes.Equal(raw[:len(snapMagic)], snapMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrSnapshotCorrupt, raw[:len(snapMagic)])
	}
	payload := raw[len(snapMagic) : len(raw)-4]
	want := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.Checksum(payload, crcJournal) != want {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrSnapshotCorrupt)
	}

	pr := bytes.NewReader(payload)
	d := bus.NewWireDec(pr)
	st := NewStore()
	bad := func(what string, err error) error {
		return fmt.Errorf("%w: %s: %v", ErrSnapshotCorrupt, what, err)
	}
	if st.nalloc, err = d.Uvarint(); err != nil {
		return nil, bad("nalloc", err)
	}
	tf, err := d.Uvarint()
	if err != nil {
		return nil, bad("totalFree", err)
	}
	st.totalFree = int(tf)
	created, err := d.Uvarint()
	if err != nil {
		return nil, bad("created", err)
	}
	deleted, err := d.Uvarint()
	if err != nil {
		return nil, bad("deleted", err)
	}
	st.created.Store(created)
	st.deleted.Store(deleted)

	for si := range st.shards {
		sh := &st.shards[si]
		nSlots, err := d.Uvarint()
		if err != nil {
			return nil, bad("slot count", err)
		}
		if nSlots > maxSnapshotSlots {
			return nil, fmt.Errorf("%w: shard %d claims %d slots", ErrSnapshotCorrupt, si, nSlots)
		}
		sh.slots = make([]slot, nSlots)
		for p := range sh.slots {
			magic, err := d.Uvarint()
			if err != nil {
				return nil, bad("slot magic", err)
			}
			sh.slots[p].magic = uint32(magic)
			present, err := d.Bool()
			if err != nil {
				return nil, bad("slot presence", err)
			}
			if !present {
				continue
			}
			r := &record{ref: Ref{Index: uint32(p*numShards + si), Magic: uint32(magic)}}
			flags, err := d.Byte()
			if err != nil {
				return nil, bad("record flags", err)
			}
			r.permanent = flags&1 != 0
			r.notify = flags&2 != 0
			r.directUse = flags&4 != 0
			r.autoRev = flags&8 != 0
			op, err := d.Uvarint()
			if err != nil {
				return nil, bad("record op", err)
			}
			r.op = Op(op)
			state, err := d.Uvarint()
			if err != nil {
				return nil, bad("record state", err)
			}
			if s := State(state); s != True && s != False && s != Unknown {
				return nil, fmt.Errorf("%w: record state %d", ErrSnapshotCorrupt, state)
			}
			r.state = State(state)
			if r.external, err = d.String(); err != nil {
				return nil, bad("record external", err)
			}
			counters := []*int{&r.nParents, &r.effTrue, &r.effFalse, &r.effUnk, &r.permTrue, &r.permFalse}
			for _, c := range counters {
				u, err := d.Uvarint()
				if err != nil {
					return nil, bad("record counter", err)
				}
				*c = int(u)
			}
			nChildren, err := d.Uvarint()
			if err != nil {
				return nil, bad("child count", err)
			}
			if nChildren > maxSnapshotSlots {
				return nil, fmt.Errorf("%w: record claims %d children", ErrSnapshotCorrupt, nChildren)
			}
			if nChildren > 0 {
				r.children = make([]childLink, nChildren)
				for i := range r.children {
					u, err := d.Uvarint()
					if err != nil {
						return nil, bad("child ref", err)
					}
					r.children[i].ref = RefFromUint64(u)
					if r.children[i].negated, err = d.Bool(); err != nil {
						return nil, bad("child negation", err)
					}
				}
			}
			r.publish()
			sh.slots[p].rec = r
		}
		nFree, err := d.Uvarint()
		if err != nil {
			return nil, bad("free count", err)
		}
		if nFree > nSlots {
			return nil, fmt.Errorf("%w: shard %d frees %d of %d slots", ErrSnapshotCorrupt, si, nFree, nSlots)
		}
		if nFree > 0 {
			sh.free = make([]uint32, nFree)
			for i := range sh.free {
				u, err := d.Uvarint()
				if err != nil {
					return nil, bad("free index", err)
				}
				sh.free[i] = uint32(u)
			}
		}
	}
	if pr.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrSnapshotCorrupt, pr.Len())
	}
	return st, nil
}
