package oasis

import (
	"fmt"
	"slices"

	"oasis/internal/bus"
	"oasis/internal/cert"
	"oasis/internal/credrec"
	"oasis/internal/ids"
	"oasis/internal/value"
)

// Binary wire-payload codecs for the inter-service protocol over the
// TCP bridge (see internal/bus/codec.go). Each payload type a served
// operation takes or returns in the `any` argument/reply position gets
// one tag byte and a hand-rolled encoder/decoder pair; nothing else is
// decodable on the peer port.
//
// The tags are protocol constants: both ends of a link must agree on
// them forever, so they are append-only — never renumber or reuse a
// tag, even for a retired type. Tags 0 and 255 are reserved by the bus
// (nil, and never allocated). Tags 4, 7, 8, 9, 10, 12, 13 and 14 are
// retired: they carried the argument and the reply of one operation the
// peer port no longer serves (4, 10), the arguments of three others (9,
// 13, 14) and three payloads no operation ever took (a bare
// certificate, a delegation, a value), and a frame bearing one is
// refused as an unknown tag (docs/PROTOCOLS.md, TestWireTagTable).
const (
	wireTagGetTypesArg   = 1
	wireTagValidateArg   = 2
	wireTagValidateReply = 3
	wireTagResyncArg     = 5
	wireTagResyncReply   = 6
	wireTagTypes         = 11
)

// registerBinaryPayloads registers every protocol payload with the
// bus's binary codec; called once from RegisterWireTypes.
func registerBinaryPayloads() {
	bus.RegisterPayload(wireTagGetTypesArg,
		func(e *bus.WireEnc, a GetTypesArg) {
			e.PutString(a.Rolefile)
			e.PutString(a.Role)
		},
		func(d *bus.WireDec) (a GetTypesArg, err error) {
			if a.Rolefile, err = d.String(); err != nil {
				return a, err
			}
			a.Role, err = d.String()
			return a, err
		})

	bus.RegisterPayload(wireTagValidateArg,
		func(e *bus.WireEnc, a ValidateArg) {
			e.PutBool(a.Cert != nil)
			if a.Cert != nil {
				encodeRMC(e, a.Cert)
			}
			encodeClientID(e, a.Client)
			e.PutBool(a.Watch)
		},
		func(d *bus.WireDec) (a ValidateArg, err error) {
			hasCert, err := d.Bool()
			if err != nil {
				return a, err
			}
			if hasCert {
				if a.Cert, err = decodeRMC(d); err != nil {
					return a, err
				}
			}
			if a.Client, err = decodeClientID(d); err != nil {
				return a, err
			}
			a.Watch, err = d.Bool()
			return a, err
		})

	bus.RegisterPayload(wireTagValidateReply,
		func(e *bus.WireEnc, r ValidateReply) {
			e.PutStrings(r.Roles)
			e.PutTypes(r.Types)
			e.PutVarint(int64(r.State))
			e.PutUvarint(r.RegID)
		},
		func(d *bus.WireDec) (r ValidateReply, err error) {
			if r.Roles, err = d.Strings(); err != nil {
				return r, err
			}
			if r.Types, err = d.Types(); err != nil {
				return r, err
			}
			st, err := d.Varint()
			if err != nil {
				return r, err
			}
			r.State = credrec.State(st)
			r.RegID, err = d.Uvarint()
			return r, err
		})

	bus.RegisterPayload(wireTagResyncArg,
		func(e *bus.WireEnc, a ResyncArg) { encodeRefs(e, a.Refs) },
		func(d *bus.WireDec) (a ResyncArg, err error) {
			a.Refs, err = decodeRefs(d)
			return a, err
		})

	bus.RegisterPayload(wireTagResyncReply,
		func(e *bus.WireEnc, r ResyncReply) {
			e.PutUvarint(r.Session)
			e.PutUvarint(r.Seq)
			encodeEntries(e, r.Entries)
		},
		func(d *bus.WireDec) (r ResyncReply, err error) {
			if r.Session, err = d.Uvarint(); err != nil {
				return r, err
			}
			if r.Seq, err = d.Uvarint(); err != nil {
				return r, err
			}
			r.Entries, err = decodeEntries(d)
			return r, err
		})

	bus.RegisterPayload(wireTagTypes,
		func(e *bus.WireEnc, ts []value.Type) { e.PutTypes(ts) },
		(*bus.WireDec).Types)
}

// encodeRefs and decodeRefs are the ref-list codec of tag 5: a uvarint
// count, then each reference as a uvarint. An empty list decodes to
// nil.
func encodeRefs(e *bus.WireEnc, refs []credrec.Ref) {
	e.PutUvarint(uint64(len(refs)))
	for _, r := range refs {
		e.PutUvarint(r.Uint64())
	}
}

func decodeRefs(d *bus.WireDec) ([]credrec.Ref, error) {
	n, err := d.Uvarint()
	if err != nil || n == 0 {
		return nil, err
	}
	if n > 1<<16 {
		return nil, fmt.Errorf("oasis: ref count %d exceeds limit", n)
	}
	refs := make([]credrec.Ref, n)
	for i := range refs {
		u, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		refs[i] = credrec.RefFromUint64(u)
	}
	return refs, nil
}

// encodeEntries and decodeEntries are the entry-list codec of tag 6: a
// uvarint count, then per entry the reference, the state as a varint
// and the permanence flag. An empty list decodes to nil.
func encodeEntries(e *bus.WireEnc, entries []credrec.Change) {
	e.PutUvarint(uint64(len(entries)))
	for _, ent := range entries {
		e.PutUvarint(ent.Ref.Uint64())
		e.PutVarint(int64(ent.State))
		e.PutBool(ent.Permanent)
	}
}

func decodeEntries(d *bus.WireDec) ([]credrec.Change, error) {
	n, err := d.Uvarint()
	if err != nil || n == 0 {
		return nil, err
	}
	if n > 1<<16 {
		return nil, fmt.Errorf("oasis: entry count %d exceeds limit", n)
	}
	entries := make([]credrec.Change, n)
	for i := range entries {
		u, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		st, err := d.Varint()
		if err != nil {
			return nil, err
		}
		perm, err := d.Bool()
		if err != nil {
			return nil, err
		}
		entries[i] = credrec.Change{Ref: credrec.RefFromUint64(u), State: credrec.State(st), Permanent: perm}
	}
	return entries, nil
}

func encodeClientID(e *bus.WireEnc, c ids.ClientID) {
	e.PutString(c.Host)
	e.PutUvarint(c.ID)
	e.PutTime(c.BootTime)
}

func decodeClientID(d *bus.WireDec) (ids.ClientID, error) {
	var c ids.ClientID
	var err error
	if c.Host, err = d.String(); err != nil {
		return c, err
	}
	if c.ID, err = d.Uvarint(); err != nil {
		return c, err
	}
	if c.BootTime, err = d.Time(); err != nil {
		return c, err
	}
	return c, nil
}

func encodeRMC(e *bus.WireEnc, c *cert.RMC) {
	e.PutString(c.Service)
	e.PutString(c.Rolefile)
	e.PutUvarint(uint64(c.Roles))
	e.PutValues(c.Args)
	encodeClientID(e, c.Client)
	e.PutUvarint(c.CRR.Uint64())
	e.PutTime(c.Expiry)
	e.PutBytes(c.Sig)
}

// rmcBlock is a decoded certificate with room beside it for its
// arguments, an array A of them, and a signature of up to 32 bytes
// (HMACSigner's longest), so that it is one allocation, not three.
// decodeRMC reads the argument count first and picks the block that
// holds exactly that many, so a two-argument certificate takes 352
// bytes; a decoder that lends room (a served connection's,
// bus.WireDec.Room) keeps one block of four arguments there and
// decodes every certificate that fits into it. A longer signature, or
// more than four arguments, still decodes, the overflow allocated
// apart.
type rmcBlock[A any] struct {
	c    cert.RMC
	args A
	sig  [32]byte
}

// newRMC allocates one block; room slices its argument array.
func newRMC[A any](room func(*A) []value.Value) (*cert.RMC, []value.Value, []byte) {
	b := new(rmcBlock[A])
	return &b.c, room(&b.args), b.sig[:0]
}

// roomyRMC is the block a lending decoder keeps.
type roomyRMC = rmcBlock[[4]value.Value]

// rmcFor returns a certificate with room for n arguments and its
// signature, both empty slices of the block: the decoder's room when it
// lends one and n fits, a new block otherwise.
func rmcFor(d *bus.WireDec, n int) (*cert.RMC, []value.Value, []byte) {
	if room := d.Room(); room != nil && n <= len(roomyRMC{}.args) {
		b, ok := (*room).(*roomyRMC)
		if !ok {
			b = new(roomyRMC)
			*room = b
		}
		b.c = cert.RMC{}
		return &b.c, b.args[:0:n], b.sig[:0]
	}
	switch n {
	case 0:
		return newRMC(func(*[0]value.Value) []value.Value { return nil })
	case 1:
		return newRMC(func(a *[1]value.Value) []value.Value { return a[:0] })
	case 2:
		return newRMC(func(a *[2]value.Value) []value.Value { return a[:0] })
	case 3:
		return newRMC(func(a *[3]value.Value) []value.Value { return a[:0] })
	case 4:
		return newRMC(func(a *[4]value.Value) []value.Value { return a[:0] })
	}
	c, _, sig := newRMC(func(*[0]value.Value) []value.Value { return nil })
	return c, make([]value.Value, 0, n), sig
}

func decodeRMC(d *bus.WireDec) (*cert.RMC, error) {
	service, err := d.String()
	if err != nil {
		return nil, err
	}
	rolefile, err := d.String()
	if err != nil {
		return nil, err
	}
	roles, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	n, err := d.Count()
	if err != nil {
		return nil, err
	}
	c, args, sig := rmcFor(d, n)
	c.Service, c.Rolefile, c.Roles = service, rolefile, cert.RoleSet(roles)
	for range n {
		v, err := d.Value()
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	// The argument slice is exactly full, so an append cannot write
	// into the block; no arguments decode to nil.
	if n > 0 {
		c.Args = args
	}
	if c.Client, err = decodeClientID(d); err != nil {
		return nil, err
	}
	crr, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	c.CRR = credrec.RefFromUint64(crr)
	if c.Expiry, err = d.Time(); err != nil {
		return nil, err
	}
	if c.Sig, err = d.AppendBytes(sig); err != nil {
		return nil, err
	}
	// An empty signature decodes to nil, and a full one keeps no spare
	// capacity in the block for an append to write into.
	c.Sig = slices.Clip(c.Sig)
	if len(c.Sig) == 0 {
		c.Sig = nil
	}
	return c, nil
}
