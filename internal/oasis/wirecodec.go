package oasis

import (
	"fmt"

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
// (nil, and never allocated). Tags 4, 7, 8, 9, 10, 12 and 13 are
// retired: they carried the argument and the reply of one operation the
// peer port no longer serves (4, 10), the arguments of two others (9,
// 13) and three payloads no operation ever took (a bare certificate, a
// delegation, a value), and a frame bearing one is refused as an
// unknown tag (docs/PROTOCOLS.md, TestWireTagTable). Tag 14 lives on
// without its edge list, whose count is always written as zero and
// refused as anything else.
const (
	wireTagGetTypesArg   = 1
	wireTagValidateArg   = 2
	wireTagValidateReply = 3
	wireTagResyncArg     = 5
	wireTagResyncReply   = 6
	wireTagTypes         = 11
	wireTagTreeForward   = 14
)

// registerBinaryPayloads registers every protocol payload with the
// bus's binary codec; called once from RegisterWireTypes.
func registerBinaryPayloads() {
	registerPayload(wireTagGetTypesArg,
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

	registerPayload(wireTagValidateArg,
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

	registerPayload(wireTagValidateReply,
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

	registerPayload(wireTagResyncArg,
		func(e *bus.WireEnc, a ResyncArg) { encodeRefs(e, a.Refs) },
		func(d *bus.WireDec) (a ResyncArg, err error) {
			a.Refs, err = decodeRefs(d)
			return a, err
		})

	registerPayload(wireTagResyncReply,
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

	registerPayload(wireTagTypes,
		func(e *bus.WireEnc, ts []value.Type) { e.PutTypes(ts) },
		(*bus.WireDec).Types)

	registerPayload(wireTagTreeForward,
		func(e *bus.WireEnc, a TreeForwardArg) {
			e.PutString(a.Origin)
			e.PutString(a.Root)
			e.PutUvarint(0) // the retired edge list, always empty
			e.PutVarint(int64(a.Pressure))
		},
		func(d *bus.WireDec) (a TreeForwardArg, err error) {
			if a.Origin, err = d.String(); err != nil {
				return a, err
			}
			if a.Root, err = d.String(); err != nil {
				return a, err
			}
			if edges, err := d.Uvarint(); err != nil {
				return a, err
			} else if edges != 0 {
				return a, fmt.Errorf("oasis: treeforward carries %d record edges; the tree carries none", edges)
			}
			p, err := d.Varint()
			a.Pressure = int(p)
			return a, err
		})
}

// registerPayload is where a payload's Go type meets its tag: encoders
// and decoders are written against the type, and the one assertion the
// bus's untyped argument position needs is made here. A decoder's error
// discards whatever it had decoded.
func registerPayload[T any](tag byte, enc func(*bus.WireEnc, T), dec func(*bus.WireDec) (T, error)) {
	var prototype T
	bus.RegisterWirePayload(tag, prototype,
		func(e *bus.WireEnc, v any) error {
			t, ok := v.(T)
			if !ok {
				return fmt.Errorf("oasis: wire payload %T is not %T", v, prototype)
			}
			enc(e, t)
			return nil
		},
		func(d *bus.WireDec) (any, error) {
			t, err := dec(d)
			if err != nil {
				return nil, err
			}
			return t, nil
		})
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
func encodeEntries(e *bus.WireEnc, entries []ResyncEntry) {
	e.PutUvarint(uint64(len(entries)))
	for _, ent := range entries {
		e.PutUvarint(ent.Ref.Uint64())
		e.PutVarint(int64(ent.State))
		e.PutBool(ent.Permanent)
	}
}

func decodeEntries(d *bus.WireDec) ([]ResyncEntry, error) {
	n, err := d.Uvarint()
	if err != nil || n == 0 {
		return nil, err
	}
	if n > 1<<16 {
		return nil, fmt.Errorf("oasis: entry count %d exceeds limit", n)
	}
	entries := make([]ResyncEntry, n)
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
		entries[i] = ResyncEntry{Ref: credrec.RefFromUint64(u), State: credrec.State(st), Permanent: perm}
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

func decodeRMC(d *bus.WireDec) (*cert.RMC, error) {
	c := &cert.RMC{}
	var err error
	if c.Service, err = d.String(); err != nil {
		return nil, err
	}
	if c.Rolefile, err = d.String(); err != nil {
		return nil, err
	}
	roles, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	c.Roles = cert.RoleSet(roles)
	if c.Args, err = d.Values(); err != nil {
		return nil, err
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
	if c.Sig, err = d.Bytes(); err != nil {
		return nil, err
	}
	return c, nil
}
