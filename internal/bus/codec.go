package bus

import (
	"encoding/binary"
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
// are registered by the owning packages through RegisterWirePayload
// (oasis.RegisterWireTypes does this for the inter-service protocol);
// a payload with no registered codec is an encode error.
//
// Decoder hardening: every length and count read off the wire is
// bounded (maxWireBytes, maxWireCount) before allocation, so a
// corrupted or hostile stream cannot balloon memory; it tears the
// connection down with an error instead. The round-trip fuzzers in
// codec_fuzz_test.go hold this line.

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

// WireDec decodes the stream produced by WireEnc, validating lengths
// and counts before allocating.
type WireDec struct {
	r wireReader
	// scratch stages short strings so String costs one allocation
	// (the string copy) instead of two (byte slice, then string).
	scratch [64]byte
	// interned reuses previously-decoded short strings: service names,
	// operations, role names and value universes repeat on every
	// message, and the decoder is single-goroutine per connection, so
	// a plain bounded map turns those repeats into zero allocations.
	interned map[string]string
}

// maxInterned bounds the per-decoder intern table so a hostile stream
// of distinct strings cannot grow it without limit.
const maxInterned = 256

// wireReader is the reader surface WireDec needs; *bufio.Reader and
// *bytes.Reader both satisfy it.
type wireReader interface {
	io.Reader
	io.ByteReader
}

// NewWireDec returns a decoder reading from r.
func NewWireDec(r wireReader) *WireDec { return &WireDec{r: r} }

// Byte reads one raw byte.
func (d *WireDec) Byte() (byte, error) { return d.r.ReadByte() }

// Uvarint reads an unsigned varint.
func (d *WireDec) Uvarint() (uint64, error) { return binary.ReadUvarint(d.r) }

// Varint reads a signed varint.
func (d *WireDec) Varint() (int64, error) { return binary.ReadVarint(d.r) }

// Bool reads a boolean; any byte other than 0 or 1 is an error, so a
// desynchronised stream fails fast instead of drifting.
func (d *WireDec) Bool() (bool, error) {
	b, err := d.r.ReadByte()
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

// count reads a slice length, bounding it before the caller allocates.
func (d *WireDec) count() (int, error) {
	u, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	if u > maxWireCount {
		return 0, fmt.Errorf("bus: wire count %d exceeds limit %d", u, maxWireCount)
	}
	return int(u), nil
}

// AppendBytes reads a length-prefixed byte slice onto dst, allocating
// only if dst's spare capacity cannot hold it; an empty slice returns
// dst as it was.
func (d *WireDec) AppendBytes(dst []byte) ([]byte, error) {
	u, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if u > maxWireBytes {
		return nil, fmt.Errorf("bus: wire length %d exceeds limit %d", u, maxWireBytes)
	}
	at := len(dst)
	dst = slices.Grow(dst, int(u))[:at+int(u)]
	if _, err := io.ReadFull(d.r, dst[at:]); err != nil {
		return nil, err
	}
	return dst, nil
}

// String reads a length-prefixed string. Names, operations, and value
// universes dominate this wire and fit the scratch buffer.
func (d *WireDec) String() (string, error) {
	u, err := d.Uvarint()
	if err != nil {
		return "", err
	}
	if u > maxWireBytes {
		return "", fmt.Errorf("bus: wire length %d exceeds limit %d", u, maxWireBytes)
	}
	if u == 0 {
		return "", nil
	}
	if u <= uint64(len(d.scratch)) {
		b := d.scratch[:u]
		if _, err := io.ReadFull(d.r, b); err != nil {
			return "", err
		}
		// The map lookup keyed string(b) does not allocate; only a
		// miss pays for the string copy.
		if s, ok := d.interned[string(b)]; ok {
			return s, nil
		}
		s := string(b)
		if len(d.interned) < maxInterned {
			if d.interned == nil {
				d.interned = make(map[string]string, 16)
			}
			d.interned[s] = s
		}
		return s, nil
	}
	b := make([]byte, u)
	if _, err := io.ReadFull(d.r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// Time reads a timestamp written by PutTime.
func (d *WireDec) Time() (time.Time, error) {
	flag, err := d.r.ReadByte()
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
	kind, err := d.r.ReadByte()
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

// Values reads a counted value vector.
func (d *WireDec) Values() ([]value.Value, error) { return d.AppendValues(nil) }

// AppendValues reads a counted value vector onto dst, allocating only
// if dst's spare capacity cannot hold it; an empty vector returns dst
// as it was.
func (d *WireDec) AppendValues(dst []value.Value) ([]value.Value, error) {
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	dst = slices.Grow(dst, n)
	for range n {
		v, err := d.Value()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// Type reads one RDL argument type.
func (d *WireDec) Type() (value.Type, error) {
	kind, err := d.r.ReadByte()
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
	n, err := d.count()
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
	n, err := d.count()
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
	tag byte
	typ reflect.Type
	enc func(*WireEnc, any) error
	dec func(*WireDec) (any, error)
}

// The registry is copy-on-write: registration happens once at process
// start (oasis.RegisterWireTypes), lookups happen per message.
var wirePayloads struct {
	mu     sync.Mutex
	byType atomic.Pointer[map[reflect.Type]*wirePayload]
	byTag  atomic.Pointer[[256]*wirePayload]
}

// RegisterWirePayload registers a binary codec for one concrete payload
// type carried in the `any` argument/reply position of bus calls. The
// tag is a wire-protocol constant: both ends of a link must agree on
// it, so owning packages allocate tags like protocol numbers (see
// oasis.RegisterWireTypes). Tags 0 and 255 are reserved. Registering a
// duplicate tag or type panics — it is a programming error, caught at
// process start.
func RegisterWirePayload(tag byte, prototype any, enc func(*WireEnc, any) error, dec func(*WireDec) (any, error)) {
	if tag == payloadTagNil || tag == payloadTagReserved {
		panic(fmt.Sprintf("bus: wire payload tag %d is reserved", tag))
	}
	typ := reflect.TypeOf(prototype)
	if typ == nil {
		panic("bus: cannot register the nil payload")
	}
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
	p := &wirePayload{tag: tag, typ: typ, enc: enc, dec: dec}
	byTag[tag] = p
	byType[typ] = p
	wirePayloads.byTag.Store(&byTag)
	wirePayloads.byType.Store(&byType)
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
			return p.enc(e, v)
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
	if tag == payloadTagNil {
		return nil, nil
	}
	if m := wirePayloads.byTag.Load(); m != nil {
		if p := m[tag]; p != nil {
			return p.dec(d)
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
// their kind uses, so a notify costs no empty Op/Err/Seq bytes.
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

// decodeWireMsg reads one message frame into m.
func decodeWireMsg(d *WireDec, m *wireMsg) error {
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
		if m.Op, err = d.String(); err != nil {
			return err
		}
		m.Arg, err = DecodePayload(d)
		return err
	case wireKindReply:
		m.Kind = "reply"
		if m.Seq, err = d.Uvarint(); err != nil {
			return err
		}
		if m.Err, err = d.String(); err != nil {
			return err
		}
		if m.IsNil, err = d.Bool(); err != nil {
			return err
		}
		m.Arg, err = DecodePayload(d)
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
