package credrec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"oasis/internal/bus"
)

// Binary journal records (the persistence engine's write format — see
// docs/STORAGE.md "Journal segments"). Each mutation of a journaled
// Store becomes one framed record:
//
//	uvarint  payload length (1 .. maxRecordBytes)
//	uint32le CRC-32C of the payload
//	payload  opcode byte + operands (bus codec varints / strings)
//
// The frame is what makes crash recovery honest: a torn final write
// leaves either a short frame or a checksum mismatch at end-of-file,
// both of which Replay drops silently (the operation never committed);
// the same damage anywhere *before* the tail means the medium lost
// committed data and recovery fails loudly. The payload reuses the
// bus wire codec helpers (varints, length-prefixed strings), so the
// journal inherits the same decoder hardening: every length is bounded
// before allocation.

// Journal opcodes. These are an on-disk format: existing values must
// never be renumbered (golden vectors in testdata/ pin them).
const (
	opFact           = 1  // state
	opExternal       = 2  // source, state
	opDerived        = 3  // op, count, (ref, negated)...
	opSet            = 4  // ref, state
	opInvalidate     = 5  // ref
	opPermanent      = 6  // ref
	opDirectUse      = 7  // ref
	opNotify         = 8  // ref
	opAutoRevoke     = 9  // ref
	opSweep          = 10 // (none)
	opSourceUnknown  = 11 // source
	opSourceFailsafe = 12 // source
	opBridged        = 13 // ref
)

// maxRecordBytes bounds a single journal record; the largest legitimate
// record is a derived allocation with maxWireCount parents, far below
// this.
const maxRecordBytes = 1 << 20

// crcJournal is the Castagnoli table used for every journal and
// snapshot checksum.
var crcJournal = crc32.MakeTable(crc32.Castagnoli)

// ErrJournalCorrupt reports damage in the body of a journal (not a torn
// tail): committed operations are unrecoverable from this medium.
var ErrJournalCorrupt = errors.New("credrec: journal corrupt")

// appendRecord frames one encoded payload onto buf.
func appendRecord(buf, payload []byte) []byte {
	var hdr [binary.MaxVarintLen64 + 4]byte
	n := binary.PutUvarint(hdr[:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[n:], crc32.Checksum(payload, crcJournal))
	buf = append(buf, hdr[:n+4]...)
	return append(buf, payload...)
}

// journalReader decodes framed records off a stream; each record's
// payload is decoded in place (WireDec.ResetBytes), so no byte of one
// record is left buffered for the next.
type journalReader struct {
	br  *bufio.Reader
	dec bus.WireDec
	buf []byte
	off int64 // stream offset just past the last good record
}

func newJournalReader(r io.Reader) *journalReader {
	return &journalReader{br: bufio.NewReader(r)}
}

// errTorn is the internal marker for an incomplete record at
// end-of-stream: the tail of a crashed append.
var errTorn = errors.New("torn tail")

// next returns the payload of the next record. io.EOF means a clean
// end; errTorn means the stream ends inside a record (or the final
// record fails its checksum with nothing after it); any other error is
// body corruption.
func (jr *journalReader) next() ([]byte, error) {
	length, err := binary.ReadUvarint(jr.br)
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, errTorn
		}
		return nil, fmt.Errorf("%w: bad record length: %v", ErrJournalCorrupt, err)
	}
	if length == 0 || length > maxRecordBytes {
		return nil, fmt.Errorf("%w: record length %d out of range", ErrJournalCorrupt, length)
	}
	if cap(jr.buf) < int(length)+4 {
		jr.buf = make([]byte, length+4)
	}
	frame := jr.buf[:length+4]
	if _, err := io.ReadFull(jr.br, frame); err != nil {
		// Only end-of-stream inside the frame is a torn tail; a device
		// read error must fail loudly, not silently drop committed
		// records as if they were never written.
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, errTorn // short frame: the write never finished
		}
		return nil, fmt.Errorf("credrec: journal read: %w", err)
	}
	want := binary.LittleEndian.Uint32(frame[:4])
	payload := frame[4:]
	if crc32.Checksum(payload, crcJournal) != want {
		// A full-length frame with a bad sum is a torn tail only if it
		// is the very last thing on the stream (a partially persisted
		// final write); any committed record after it proves the body
		// itself is damaged.
		if _, err := jr.br.ReadByte(); err == io.EOF {
			return nil, errTorn
		}
		return nil, fmt.Errorf("%w: record checksum mismatch", ErrJournalCorrupt)
	}
	jr.off += int64(uvarintLen(length)) + 4 + int64(length)
	return payload, nil
}

// uvarintLen is the encoded size of x as a uvarint.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// apply decodes one record payload and applies it to st.
func (jr *journalReader) apply(st *Store, payload []byte) error {
	d := &jr.dec
	d.ResetBytes(payload)
	op, err := d.Byte()
	if err != nil {
		return err
	}
	state := func() (State, error) {
		u, err := d.Uvarint()
		if err != nil {
			return 0, err
		}
		if s := State(u); s == True || s == False || s == Unknown {
			return s, nil
		}
		return 0, fmt.Errorf("bad state %d", u)
	}
	ref := func() (Ref, error) {
		u, err := d.Uvarint()
		return RefFromUint64(u), err
	}
	switch op {
	case opFact:
		s, err := state()
		if err != nil {
			return err
		}
		st.NewFact(s)
	case opExternal:
		source, err := d.String()
		if err != nil {
			return err
		}
		s, err := state()
		if err != nil {
			return err
		}
		st.NewExternal(source, s)
	case opDerived:
		u, err := d.Uvarint()
		if err != nil {
			return err
		}
		if o := Op(u); o != OpAnd && o != OpOr && o != OpNand && o != OpNor {
			return fmt.Errorf("bad derived op %d", u)
		}
		n, err := d.Uvarint()
		if err != nil {
			return err
		}
		if n > maxRecordBytes/2 {
			return fmt.Errorf("parent count %d out of range", n)
		}
		parents := make([]Parent, n)
		for i := range parents {
			if parents[i].Ref, err = ref(); err != nil {
				return err
			}
			if parents[i].Negated, err = d.Bool(); err != nil {
				return err
			}
		}
		st.NewDerived(Op(u), parents...)
	case opSet:
		r, err := ref()
		if err != nil {
			return err
		}
		s, err := state()
		if err != nil {
			return err
		}
		if err := st.SetState(r, s); err != nil {
			return err
		}
	case opInvalidate:
		r, err := ref()
		if err != nil {
			return err
		}
		if err := st.Invalidate(r); err != nil {
			return err
		}
	case opPermanent:
		r, err := ref()
		if err != nil {
			return err
		}
		if err := st.MakePermanent(r); err != nil {
			return err
		}
	case opDirectUse, opNotify, opAutoRevoke, opBridged:
		r, err := ref()
		if err != nil {
			return err
		}
		switch op {
		case opDirectUse:
			err = st.MarkDirectUse(r)
		case opNotify:
			err = st.MarkNotify(r)
		case opBridged:
			err = st.markBridged(r)
		default:
			err = st.MarkAutoRevoke(r)
		}
		if err != nil {
			return err
		}
	case opSweep:
		st.Sweep()
	case opSourceUnknown:
		source, err := d.String()
		if err != nil {
			return err
		}
		st.MarkSourceUnknown(source)
	case opSourceFailsafe:
		source, err := d.String()
		if err != nil {
			return err
		}
		st.MarkSourceFailsafe(source)
	default:
		return fmt.Errorf("unknown opcode %d", op)
	}
	if d.Buffered() != 0 {
		return fmt.Errorf("%d trailing bytes after operands", d.Buffered())
	}
	return nil
}

// ReplayIntoOffset re-executes a binary journal stream against st,
// which must be in exactly the state the stream was journaled from
// (empty for a whole journal; the snapshot's store for a tail segment).
// It returns the number of records applied, the stream offset just past
// the last applied record — the length a torn segment can be truncated
// to so its tear is not mistaken for mid-journal corruption by a later
// recovery — and whether a torn final record was dropped. With strict
// set, a torn tail is an error too — recovery passes strict for every
// segment except the last, because only the segment being appended to
// at the crash can legitimately be torn.
func ReplayIntoOffset(st *Store, r io.Reader, strict bool) (applied int, clean int64, torn bool, err error) {
	jr := newJournalReader(r)
	for {
		payload, err := jr.next()
		if err == io.EOF {
			return applied, clean, false, nil
		}
		if err == errTorn {
			if strict {
				return applied, clean, true, fmt.Errorf("%w: record %d torn mid-journal", ErrJournalCorrupt, applied+1)
			}
			return applied, clean, true, nil
		}
		if err != nil {
			return applied, clean, false, err
		}
		if err := jr.apply(st, payload); err != nil {
			return applied, clean, false, fmt.Errorf("%w: record %d: %v", ErrJournalCorrupt, applied+1, err)
		}
		applied++
		clean = jr.off
	}
}
