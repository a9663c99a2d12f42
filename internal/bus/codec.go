package bus

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"oasis/internal/event"
	"oasis/internal/value"
)

// Binary wire codec for the TCP bridge: hand-rolled and
// self-describing at the granularity the protocol needs — varint
// integers, length-prefixed strings, one tag byte per payload type —
// with no reflection and no type names on the wire.
//
// Payload types — the `any` argument/reply values carried by calls —
// are registered by the owning packages through RegisterPayload
// (oasis.RegisterWireTypes does this for the inter-service protocol);
// a payload with no registered codec is an encode error.
//
// Decoder hardening: every length and count read off the wire is
// bounded (maxWireBytes, maxWireCount) before allocation, so a
// corrupted or hostile stream cannot balloon memory; it tears the
// connection down with an error instead. The round-trip fuzzers in
// codec_fuzz_test.go hold this line, and hold the decoder's window to
// decoding the same however the bytes arrive.

// Limits applied while decoding untrusted bytes.
const (
	maxWireBytes = 1 << 20 // longest single string/byte-slice
	maxWireCount = 1 << 16 // longest slice (args, roles, resync entries)
)

// WireEnc encodes primitive values into a buffered stream. Write errors
// are sticky in the underlying bufio.Writer and surface at Flush, so
// the Put methods do not return errors; payload encoders return errors
// only for semantic failures (wrong dynamic type).
type WireEnc struct {
	w   wireWriter
	buf [binary.MaxVarintLen64]byte
}

// wireWriter is the minimal writer surface WireEnc needs; *bufio.Writer
// and *bytes.Buffer both satisfy it, so the TCP path and tests share
// one encoder without double-buffering.
type wireWriter interface {
	io.Writer
	WriteByte(byte) error
	WriteString(string) (int, error)
}

// NewWireEnc returns an encoder writing to w. The TCP path passes its
// per-connection *bufio.Writer; tests may pass a *bytes.Buffer.
func NewWireEnc(w wireWriter) *WireEnc { return &WireEnc{w: w} }

// Flush flushes the underlying writer if it is buffered, surfacing any
// sticky write error.
func (e *WireEnc) Flush() error {
	if f, ok := e.w.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return nil
}

// PutByte writes one raw byte.
func (e *WireEnc) PutByte(b byte) { _ = e.w.WriteByte(b) }

// PutUvarint writes an unsigned varint.
func (e *WireEnc) PutUvarint(u uint64) {
	n := binary.PutUvarint(e.buf[:], u)
	_, _ = e.w.Write(e.buf[:n])
}

// PutVarint writes a signed (zig-zag) varint.
func (e *WireEnc) PutVarint(i int64) {
	n := binary.PutVarint(e.buf[:], i)
	_, _ = e.w.Write(e.buf[:n])
}

// PutBool writes a boolean as one byte.
func (e *WireEnc) PutBool(b bool) {
	if b {
		_ = e.w.WriteByte(1)
	} else {
		_ = e.w.WriteByte(0)
	}
}

// PutString writes a length-prefixed string.
func (e *WireEnc) PutString(s string) {
	e.PutUvarint(uint64(len(s)))
	_, _ = e.w.WriteString(s)
}

// PutBytes writes a length-prefixed byte slice.
func (e *WireEnc) PutBytes(b []byte) {
	e.PutUvarint(uint64(len(b)))
	_, _ = e.w.Write(b)
}

// PutTime writes a timestamp as (flag, unix seconds, nanoseconds); the
// zero time is a single 0 byte. Only the instant survives — location
// does not — which is all certificate expiry and event-horizon
// comparisons use.
func (e *WireEnc) PutTime(t time.Time) {
	if t.IsZero() {
		_ = e.w.WriteByte(0)
		return
	}
	_ = e.w.WriteByte(1)
	e.PutVarint(t.Unix())
	e.PutUvarint(uint64(t.Nanosecond()))
}

// Value kind tags on the wire (distinct from value.Kind so the wire
// format is frozen independently of the Go enumeration).
const (
	wireValueZero   = 0 // the zero Value{}
	wireValueInt    = 1
	wireValueString = 2
	wireValueSet    = 3
	wireValueObject = 4
)

// PutValue writes one typed RDL value.
func (e *WireEnc) PutValue(v value.Value) {
	switch v.T.Kind {
	case value.KindInt:
		e.PutByte(wireValueInt)
		e.PutVarint(v.I)
	case value.KindString:
		e.PutByte(wireValueString)
		e.PutString(v.S)
	case value.KindSet:
		e.PutByte(wireValueSet)
		e.PutString(v.T.Universe)
		e.PutUvarint(v.Set)
	case value.KindObject:
		e.PutByte(wireValueObject)
		e.PutString(v.T.Name)
		e.PutString(v.S)
	default:
		e.PutByte(wireValueZero)
	}
}

// PutValues writes a counted value vector.
func (e *WireEnc) PutValues(vs []value.Value) {
	e.PutUvarint(uint64(len(vs)))
	for _, v := range vs {
		e.PutValue(v)
	}
}

// PutType writes one RDL argument type.
func (e *WireEnc) PutType(t value.Type) {
	switch t.Kind {
	case value.KindInt:
		e.PutByte(wireValueInt)
	case value.KindString:
		e.PutByte(wireValueString)
	case value.KindSet:
		e.PutByte(wireValueSet)
		e.PutString(t.Universe)
	case value.KindObject:
		e.PutByte(wireValueObject)
		e.PutString(t.Name)
	default:
		e.PutByte(wireValueZero)
	}
}

// PutTypes writes a counted type vector.
func (e *WireEnc) PutTypes(ts []value.Type) {
	e.PutUvarint(uint64(len(ts)))
	for _, t := range ts {
		e.PutType(t)
	}
}

// PutStrings writes a counted string vector.
func (e *WireEnc) PutStrings(ss []string) {
	e.PutUvarint(uint64(len(ss)))
	for _, s := range ss {
		e.PutString(s)
	}
}

// WireDec decodes the stream produced by WireEnc out of a byte window
// it owns: every primitive indexes bytes already in memory, and the
// window is refilled from the reader only when a field runs past the
// bytes it holds, so a connection's decoder is its one read buffer.
// Lengths and counts are validated before allocating.
type WireDec struct {
	r   io.Reader // nil while decoding one slice (ResetBytes)
	buf []byte    // buf[off:] is read and not yet decoded
	off int
	win []byte // the reader's window, wireBufSize long once allocated
	// names shares short strings: the service names, operations, role
	// files, types and hosts a frame repeats cost no allocation (intern).
	names [internSlots]string
	// room is what a served connection lends the payload decoder it is
	// running (Room); nil on every other decoder.
	room *any
}

// A decoder's string table: a short string goes to the slot its length
// and end bytes name, and is shared while it is the last string decoded
// there. The table is bounded by construction; a stream of distinct
// strings costs one allocation each, as it would with no table.
const (
	internBits   = 6
	internSlots  = 1 << internBits
	maxInternLen = 64 // longer strings are allocated every time
)

// errWireOverflow is a varint of more than 64 bits.
var errWireOverflow = errors.New("bus: wire varint overflows a 64-bit integer")

// NewWireDec returns a decoder reading from r through its own window.
// A decoder whose reader ends exactly at a frame's end holds nothing
// after it, so r may be reset between frames.
func NewWireDec(r io.Reader) *WireDec { return &WireDec{r: r} }

// ResetBytes points the decoder at b, which it decodes in place with
// no reader behind it: nothing of an earlier input stays buffered. b
// must not change while it is decoded; nothing decoded aliases it.
func (d *WireDec) ResetBytes(b []byte) { d.r, d.buf, d.off = nil, b, 0 }

// Room returns the room a served connection's decoder lends the payload
// decoder it runs: a slot whose value the decoder may set and, on the
// connection's next call, find again — memory a decoded argument may
// live in, reused only once the call it served has been answered (Op).
// On every other decoder it is nil, and a payload decodes to values it
// owns alone.
func (d *WireDec) Room() *any { return d.room }

// Buffered reports the bytes read and not yet decoded.
func (d *WireDec) Buffered() int { return len(d.buf) - d.off }

// fill makes n ≤ wireBufSize bytes available at buf[off:]: it moves the
// unread bytes to the window's front and reads until there are n. A
// stream that ends first is io.EOF if no byte was left unread, and
// io.ErrUnexpectedEOF if one was.
func (d *WireDec) fill(n int) error {
	if d.r == nil {
		return d.short()
	}
	if d.win == nil {
		d.win = make([]byte, wireBufSize)
	}
	have := copy(d.win, d.buf[d.off:])
	d.buf, d.off = d.win[:have], 0
	for empty := 0; have < n; {
		m, err := d.r.Read(d.win[have:])
		have += m
		d.buf = d.win[:have]
		switch {
		case have >= n:
		case err == io.EOF:
			return d.short()
		case err != nil:
			return err
		case m == 0:
			if empty++; empty == 100 {
				return io.ErrNoProgress
			}
		}
	}
	return nil
}

// short is the error for input that ended inside a field.
func (d *WireDec) short() error {
	if d.off == len(d.buf) {
		return io.EOF
	}
	return io.ErrUnexpectedEOF
}

// span returns the next n bytes, in the window: valid until the next
// read. n is at most wireBufSize unless the decoder reads one slice.
func (d *WireDec) span(n int) ([]byte, error) {
	if len(d.buf)-d.off < n {
		if err := d.fill(n); err != nil {
			return nil, err
		}
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

// appendLong reads a field of n bytes, longer than the window, onto
// dst: the buffered bytes, then the rest straight from the reader.
func (d *WireDec) appendLong(dst []byte, n int) ([]byte, error) {
	at := len(dst)
	dst = slices.Grow(dst, n)[:at+n]
	k := copy(dst[at:], d.buf[d.off:])
	d.off = len(d.buf)
	if _, err := io.ReadFull(d.r, dst[at+k:]); err != nil {
		if err == io.EOF && k > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return dst, nil
}

// Byte reads one raw byte.
func (d *WireDec) Byte() (byte, error) {
	if d.off == len(d.buf) {
		if err := d.fill(1); err != nil {
			return 0, err
		}
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

// Uvarint reads an unsigned varint, with the errors of
// binary.ReadUvarint: io.EOF before its first byte, io.ErrUnexpectedEOF
// inside it.
func (d *WireDec) Uvarint() (uint64, error) {
	var x uint64
	var s uint
	for i := range binary.MaxVarintLen64 {
		if d.off == len(d.buf) {
			if err := d.fill(1); err != nil {
				if i > 0 && err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return x, err
			}
		}
		b := d.buf[d.off]
		d.off++
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return x, errWireOverflow
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return x, errWireOverflow
}

// Varint reads a signed (zig-zag) varint.
func (d *WireDec) Varint() (int64, error) {
	ux, err := d.Uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, err
}

// Bool reads a boolean; any byte other than 0 or 1 is an error, so a
// desynchronised stream fails fast instead of drifting.
func (d *WireDec) Bool() (bool, error) {
	b, err := d.Byte()
	if err != nil {
		return false, err
	}
	switch b {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, fmt.Errorf("bus: bad wire bool %#x", b)
	}
}

// Count reads a slice length, bounding it before the caller allocates.
func (d *WireDec) Count() (int, error) {
	u, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	if u > maxWireCount {
		return 0, fmt.Errorf("bus: wire count %d exceeds limit %d", u, maxWireCount)
	}
	return int(u), nil
}

// length reads the length prefix of a string or byte slice.
func (d *WireDec) length() (int, error) {
	u, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	if u > maxWireBytes {
		return 0, fmt.Errorf("bus: wire length %d exceeds limit %d", u, maxWireBytes)
	}
	return int(u), nil
}

// AppendBytes reads a length-prefixed byte slice onto dst, allocating
// only if dst's spare capacity cannot hold it; an empty slice returns
// dst as it was.
func (d *WireDec) AppendBytes(dst []byte) ([]byte, error) {
	n, err := d.length()
	if err != nil {
		return nil, err
	}
	if n > wireBufSize && d.r != nil {
		return d.appendLong(dst, n)
	}
	b, err := d.span(n)
	if err != nil {
		return nil, err
	}
	return append(dst, b...), nil
}

// String reads a length-prefixed string. A short one is shared through
// the decoder's table (intern).
func (d *WireDec) String() (string, error) {
	n, err := d.length()
	if err != nil || n == 0 {
		return "", err
	}
	if n > wireBufSize && d.r != nil {
		b, err := d.appendLong(nil, n)
		return string(b), err
	}
	b, err := d.span(n)
	if err != nil {
		return "", err
	}
	if n > maxInternLen {
		return string(b), nil
	}
	return d.intern(b), nil
}

// intern returns b as a string, the one in b's slot if it is equal —
// the comparison allocates nothing — and otherwise a new one, which
// takes the slot.
func (d *WireDec) intern(b []byte) string {
	key := uint32(len(b))<<16 | uint32(b[0])<<8 | uint32(b[len(b)-1])
	slot := &d.names[key*0x85ebca6b>>(32-internBits)]
	if *slot == string(b) {
		return *slot
	}
	s := string(b)
	*slot = s
	return s
}

// Time reads a timestamp written by PutTime.
func (d *WireDec) Time() (time.Time, error) {
	flag, err := d.Byte()
	if err != nil {
		return time.Time{}, err
	}
	switch flag {
	case 0:
		return time.Time{}, nil
	case 1:
		sec, err := d.Varint()
		if err != nil {
			return time.Time{}, err
		}
		nsec, err := d.Uvarint()
		if err != nil {
			return time.Time{}, err
		}
		if nsec >= uint64(time.Second) {
			return time.Time{}, fmt.Errorf("bus: bad wire nanoseconds %d", nsec)
		}
		return time.Unix(sec, int64(nsec)), nil
	default:
		return time.Time{}, fmt.Errorf("bus: bad wire time flag %#x", flag)
	}
}

// Value reads one typed RDL value.
func (d *WireDec) Value() (value.Value, error) {
	kind, err := d.Byte()
	if err != nil {
		return value.Value{}, err
	}
	switch kind {
	case wireValueZero:
		return value.Value{}, nil
	case wireValueInt:
		i, err := d.Varint()
		if err != nil {
			return value.Value{}, err
		}
		return value.Int(i), nil
	case wireValueString:
		s, err := d.String()
		if err != nil {
			return value.Value{}, err
		}
		return value.Str(s), nil
	case wireValueSet:
		universe, err := d.String()
		if err != nil {
			return value.Value{}, err
		}
		bits, err := d.Uvarint()
		if err != nil {
			return value.Value{}, err
		}
		return value.Value{T: value.SetType(universe), Set: bits}, nil
	case wireValueObject:
		name, err := d.String()
		if err != nil {
			return value.Value{}, err
		}
		id, err := d.String()
		if err != nil {
			return value.Value{}, err
		}
		return value.Object(name, id), nil
	default:
		return value.Value{}, fmt.Errorf("bus: bad wire value kind %#x", kind)
	}
}

// Values reads a counted value vector; an empty one is nil.
func (d *WireDec) Values() ([]value.Value, error) {
	n, err := d.Count()
	if err != nil || n == 0 {
		return nil, err
	}
	vs := make([]value.Value, n)
	for i := range vs {
		if vs[i], err = d.Value(); err != nil {
			return nil, err
		}
	}
	return vs, nil
}

// Type reads one RDL argument type.
func (d *WireDec) Type() (value.Type, error) {
	kind, err := d.Byte()
	if err != nil {
		return value.Type{}, err
	}
	switch kind {
	case wireValueZero:
		return value.Type{}, nil
	case wireValueInt:
		return value.IntType, nil
	case wireValueString:
		return value.StringType, nil
	case wireValueSet:
		universe, err := d.String()
		if err != nil {
			return value.Type{}, err
		}
		return value.SetType(universe), nil
	case wireValueObject:
		name, err := d.String()
		if err != nil {
			return value.Type{}, err
		}
		return value.ObjectType(name), nil
	default:
		return value.Type{}, fmt.Errorf("bus: bad wire type kind %#x", kind)
	}
}

// Types reads a counted type vector.
func (d *WireDec) Types() ([]value.Type, error) {
	n, err := d.Count()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	ts := make([]value.Type, n)
	for i := range ts {
		if ts[i], err = d.Type(); err != nil {
			return nil, err
		}
	}
	return ts, nil
}

// Strings reads a counted string vector.
func (d *WireDec) Strings() ([]string, error) {
	n, err := d.Count()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	ss := make([]string, n)
	for i := range ss {
		if ss[i], err = d.String(); err != nil {
			return nil, err
		}
	}
	return ss, nil
}

// ---- payload registry ----

// Reserved payload tags.
const (
	payloadTagNil      = 0   // a nil argument or reply
	payloadTagReserved = 255 // never allocated; an unknown tag on the wire
)

type wirePayload struct {
	tag   byte
	typ   reflect.Type
	codec boxedCodec // a *payloadCodec[T]
}

// payloadCodec is a payload's codec, typed: what a served call's block
// (Op) decodes its argument with and encodes its reply with, nothing
// boxed. Its boxed methods serve the `any` position of everything else.
type payloadCodec[T any] struct {
	enc func(*WireEnc, T)
	dec func(*WireDec) (T, error)
}

type boxedCodec interface {
	encodeBoxed(e *WireEnc, v any) error
	decodeBoxed(d *WireDec) (any, error)
}

func (c *payloadCodec[T]) encodeBoxed(e *WireEnc, v any) error {
	t, ok := v.(T)
	if !ok {
		return fmt.Errorf("bus: wire payload %T is not %T", v, t)
	}
	c.enc(e, t)
	return nil
}

func (c *payloadCodec[T]) decodeBoxed(d *WireDec) (any, error) {
	t, err := c.dec(d)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// The registry is copy-on-write: registration happens once at process
// start (oasis.RegisterWireTypes), lookups happen per message.
var wirePayloads struct {
	mu     sync.Mutex
	byType atomic.Pointer[map[reflect.Type]*wirePayload]
	byTag  atomic.Pointer[[256]*wirePayload]
}

// RegisterPayload registers the binary codec of one concrete payload
// type T, carried in the `any` argument/reply position of bus calls and
// in the typed rows of op tables (Op). The tag is a wire-protocol
// constant: both ends of a link must agree on it, so owning packages
// allocate tags like protocol numbers (see oasis.RegisterWireTypes).
// Tags 0 and 255 are reserved. Registering a duplicate tag or type
// panics — it is a programming error, caught at process start. A
// decoder's error discards whatever it had decoded.
func RegisterPayload[T any](tag byte, enc func(*WireEnc, T), dec func(*WireDec) (T, error)) {
	if tag == payloadTagNil || tag == payloadTagReserved {
		panic(fmt.Sprintf("bus: wire payload tag %d is reserved", tag))
	}
	typ := reflect.TypeOf(*new(T))
	if typ == nil {
		panic("bus: cannot register the nil payload")
	}
	p := &wirePayload{tag: tag, typ: typ, codec: &payloadCodec[T]{enc, dec}}
	wirePayloads.mu.Lock()
	defer wirePayloads.mu.Unlock()
	var byTag [256]*wirePayload
	if old := wirePayloads.byTag.Load(); old != nil {
		byTag = *old
	}
	if byTag[tag] != nil {
		panic(fmt.Sprintf("bus: wire payload tag %d registered twice", tag))
	}
	byType := make(map[reflect.Type]*wirePayload)
	if old := wirePayloads.byType.Load(); old != nil {
		for k, v := range *old {
			byType[k] = v
		}
	}
	if _, dup := byType[typ]; dup {
		panic(fmt.Sprintf("bus: wire payload type %v registered twice", typ))
	}
	byTag[tag] = p
	byType[typ] = p
	wirePayloads.byTag.Store(&byTag)
	wirePayloads.byType.Store(&byType)
}

// codecFor returns the typed codec registered at tag, which must be
// T's: a row naming a tag of another type is a programming error.
func codecFor[T any](tag byte) (*payloadCodec[T], error) {
	if m := wirePayloads.byTag.Load(); m != nil && m[tag] != nil {
		if c, ok := m[tag].codec.(*payloadCodec[T]); ok {
			return c, nil
		}
		return nil, fmt.Errorf("bus: wire payload tag %d is %v, not %T", tag, m[tag].typ, *new(T))
	}
	return nil, fmt.Errorf("bus: unknown wire payload tag %d", tag)
}

// EncodePayload writes one `any` payload: a nil tag or a registered
// binary codec. An unregistered type is an error and writes nothing.
func EncodePayload(e *WireEnc, v any) error {
	if v == nil {
		e.PutByte(payloadTagNil)
		return nil
	}
	if m := wirePayloads.byType.Load(); m != nil {
		if p := (*m)[reflect.TypeOf(v)]; p != nil {
			e.PutByte(p.tag)
			return p.codec.encodeBoxed(e, v)
		}
	}
	return fmt.Errorf("bus: no wire payload registered for %T", v)
}

// DecodePayload reads one payload written by EncodePayload.
func DecodePayload(d *WireDec) (any, error) {
	tag, err := d.Byte()
	if err != nil {
		return nil, err
	}
	return decodePayloadBody(d, tag)
}

// decodePayloadBody reads the payload its tag, already read, announces.
func decodePayloadBody(d *WireDec, tag byte) (any, error) {
	if tag == payloadTagNil {
		return nil, nil
	}
	if m := wirePayloads.byTag.Load(); m != nil {
		if p := m[tag]; p != nil {
			return p.codec.decodeBoxed(d)
		}
	}
	return nil, fmt.Errorf("bus: unknown wire payload tag %d", tag)
}

// ---- message framing ----

// Message kind bytes on the wire.
const (
	wireKindCall   = 1
	wireKindReply  = 2
	wireKindNotify = 3
)

// encodeWireMsg writes one message frame. Frames carry only the fields
// their kind uses, so a notify costs no empty Op/Err/Seq bytes. A reply
// to a call served from an op table encodes from the call's block.
func encodeWireMsg(e *WireEnc, m *wireMsg) error {
	switch m.Kind {
	case "call":
		e.PutByte(wireKindCall)
		e.PutUvarint(m.Seq)
		e.PutString(m.From)
		e.PutString(m.To)
		e.PutString(m.Op)
		return EncodePayload(e, m.Arg)
	case "reply":
		e.PutByte(wireKindReply)
		e.PutUvarint(m.Seq)
		e.PutString(m.Err)
		e.PutBool(m.IsNil)
		if m.call != nil {
			return m.call.encodeReply(e)
		}
		return EncodePayload(e, m.Arg)
	case "notify":
		e.PutByte(wireKindNotify)
		e.PutString(m.From)
		e.PutString(m.To)
		encodeNotification(e, &m.Note)
		return nil
	default:
		return fmt.Errorf("bus: cannot encode message kind %q", m.Kind)
	}
}

// decodeWireMsg reads one message frame into m, its payload an owned
// value in m.Arg.
func decodeWireMsg(d *WireDec, m *wireMsg) error {
	if err := decodeWireHead(d, m); err != nil || m.Kind == "notify" {
		return err
	}
	var err error
	m.Arg, err = DecodePayload(d)
	return err
}

// decodeWireHead reads one message frame into m up to its payload: the
// whole of a notify, the rest of a call or a reply but the payload.
func decodeWireHead(d *WireDec, m *wireMsg) error {
	kind, err := d.Byte()
	if err != nil {
		return err
	}
	*m = wireMsg{}
	switch kind {
	case wireKindCall:
		m.Kind = "call"
		if m.Seq, err = d.Uvarint(); err != nil {
			return err
		}
		if m.From, err = d.String(); err != nil {
			return err
		}
		if m.To, err = d.String(); err != nil {
			return err
		}
		m.Op, err = d.String()
		return err
	case wireKindReply:
		m.Kind = "reply"
		if m.Seq, err = d.Uvarint(); err != nil {
			return err
		}
		if m.Err, err = d.String(); err != nil {
			return err
		}
		m.IsNil, err = d.Bool()
		return err
	case wireKindNotify:
		m.Kind = "notify"
		if m.From, err = d.String(); err != nil {
			return err
		}
		if m.To, err = d.String(); err != nil {
			return err
		}
		m.Note, err = decodeNotification(d)
		return err
	default:
		return fmt.Errorf("bus: bad wire message kind %#x", kind)
	}
}

// encodeNotification writes one event.Notification.
func encodeNotification(e *WireEnc, n *event.Notification) {
	e.PutString(n.Source)
	e.PutUvarint(n.SessionID)
	e.PutUvarint(n.Seq)
	e.PutBool(n.Heartbeat)
	e.PutUvarint(n.RegID)
	e.PutUvarint(n.Coalesced)
	e.PutTime(n.Horizon)
	encodeEvent(e, &n.Event)
}

// decodeNotification reads one event.Notification.
func decodeNotification(d *WireDec) (event.Notification, error) {
	var n event.Notification
	var err error
	if n.Source, err = d.String(); err != nil {
		return n, err
	}
	if n.SessionID, err = d.Uvarint(); err != nil {
		return n, err
	}
	if n.Seq, err = d.Uvarint(); err != nil {
		return n, err
	}
	if n.Heartbeat, err = d.Bool(); err != nil {
		return n, err
	}
	if n.RegID, err = d.Uvarint(); err != nil {
		return n, err
	}
	if n.Coalesced, err = d.Uvarint(); err != nil {
		return n, err
	}
	if n.Horizon, err = d.Time(); err != nil {
		return n, err
	}
	if n.Event, err = decodeEvent(d); err != nil {
		return n, err
	}
	return n, nil
}

// encodeEvent writes one event.Event.
func encodeEvent(e *WireEnc, ev *event.Event) {
	e.PutString(ev.Name)
	e.PutString(ev.Source)
	e.PutUvarint(ev.Seq)
	e.PutTime(ev.Time)
	e.PutValues(ev.Args)
}

// decodeEvent reads one event.Event.
func decodeEvent(d *WireDec) (event.Event, error) {
	var ev event.Event
	var err error
	if ev.Name, err = d.String(); err != nil {
		return ev, err
	}
	if ev.Source, err = d.String(); err != nil {
		return ev, err
	}
	if ev.Seq, err = d.Uvarint(); err != nil {
		return ev, err
	}
	if ev.Time, err = d.Time(); err != nil {
		return ev, err
	}
	if ev.Args, err = d.Values(); err != nil {
		return ev, err
	}
	return ev, nil
}
