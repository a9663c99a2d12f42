package gateway

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"

	"oasis/internal/ids"
	"oasis/internal/value"
)

// The read path relying parties hammer — introspection, and its twin
// revoke-by-token — handles its bodies without reflection: the request
// is recognised in place in a pooled buffer and the response is
// appended to the same buffer by hand. Both halves are exact or absent:
// a request the recogniser does not accept is replayed through decode,
// and a string the appender cannot copy verbatim goes through
// json.Marshal, so the wire format has one definition (encoding/json)
// and this file only short-cuts the inputs it can prove equivalent
// (FuzzIntrospectBody, TestAppendMatchesEncoder).

// maxCanonicalBody is the largest declared body the recogniser reads;
// anything longer is decode's business.
const maxCanonicalBody = 4 << 10

// maxPooledBuf keeps one outsized response from pinning its buffer in
// the pool forever.
const maxPooledBuf = 64 << 10

// bufPool holds request/response scratch. Every buffer has room for a
// canonical body; pointers are pooled so Put does not allocate.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, maxCanonicalBody+1024)
	return &b
}}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledBuf {
		bufPool.Put(bp)
	}
}

// readToken reads a body of declared length 1..maxCanonicalBody into
// the buffer and returns the token of the canonical shape
// {"token":"…"} together with the body's length; the token aliases the
// buffer, which the caller may append to from that length on. For any
// other body it returns a nil token, having left r.Body yielding
// exactly what the original would have — the bytes already read, then
// the error that ended the read — so decode answers as if nothing had
// been read.
func readToken(r *http.Request, bp *[]byte) (tok []byte, n int) {
	if r.ContentLength <= 0 || r.ContentLength > maxCanonicalBody {
		return nil, 0
	}
	buf := (*bp)[:r.ContentLength]
	var err error
	for n < len(buf) && err == nil {
		var m int
		m, err = r.Body.Read(buf[n:])
		n += m
	}
	if n == len(buf) {
		if tok, ok := canonicalToken(buf); ok {
			return tok, n
		}
		err = io.EOF
	}
	r.Body = &replayBody{data: buf[:n], err: err}
	return nil, n
}

// replayBody yields bytes already read off a request body, then the
// error the original body ended with.
type replayBody struct {
	data []byte
	err  error
}

func (b *replayBody) Read(p []byte) (int, error) {
	if len(b.data) == 0 {
		return 0, b.err
	}
	n := copy(p, b.data)
	b.data = b.data[n:]
	return n, nil
}

func (b *replayBody) Close() error { return nil }

// canonicalToken recognises exactly ws { ws "token" ws : ws "T" ws } ws
// where T is one or more printable ASCII bytes other than '"' and '\\'
// — the only bodies for which decoding into IntrospectRequest or
// RevokeRequest is known to yield Token == T and nothing else.
// Escapes, other keys (encoding/json folds case), duplicates, trailing
// values and the empty token are all left to decode.
func canonicalToken(b []byte) ([]byte, bool) {
	const key = `"token"`
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return nil, false
	}
	i = skipSpace(b, i+1)
	if !bytes.HasPrefix(b[i:], []byte(key)) {
		return nil, false
	}
	i = skipSpace(b, i+len(key))
	if i == len(b) || b[i] != ':' {
		return nil, false
	}
	i = skipSpace(b, i+1)
	if i == len(b) || b[i] != '"' {
		return nil, false
	}
	start := i + 1
	for i = start; i < len(b) && b[i] >= 0x20 && b[i] < 0x7f && b[i] != '"' && b[i] != '\\'; i++ {
	}
	if i == start || i == len(b) || b[i] != '"' {
		return nil, false
	}
	tok := b[start:i]
	i = skipSpace(b, i+1)
	if i == len(b) || b[i] != '}' {
		return nil, false
	}
	if skipSpace(b, i+1) != len(b) {
		return nil, false
	}
	return tok, true
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// appendIntrospectResponse appends exactly what
// json.NewEncoder(w).Encode(res) writes, trailing newline included.
func appendIntrospectResponse(b []byte, res *IntrospectResponse) []byte {
	if res.Active {
		b = append(b, `{"active":true`...)
	} else {
		b = append(b, `{"active":false`...)
	}
	if res.Issuer != "" {
		b = appendString(append(b, `,"issuer":`...), res.Issuer)
	}
	if res.Rolefile != "" {
		b = appendString(append(b, `,"rolefile":`...), res.Rolefile)
	}
	if len(res.Roles) > 0 {
		b = append(b, `,"roles":`...)
		sep := byte('[')
		for _, role := range res.Roles {
			b = appendString(append(b, sep), role)
			sep = ','
		}
		b = append(b, ']')
	}
	if len(res.Args) > 0 {
		b = append(b, `,"args":`...)
		sep := byte('[')
		for i := range res.Args {
			b = appendValue(append(b, sep), &res.Args[i])
			sep = ','
		}
		b = append(b, ']')
	}
	if res.Client != "" {
		b = appendString(append(b, `,"client":`...), res.Client)
	}
	if res.Exp != 0 {
		b = strconv.AppendInt(append(b, `,"exp":`...), res.Exp, 10)
	}
	if res.Iat != 0 {
		b = strconv.AppendInt(append(b, `,"iat":`...), res.Iat, 10)
	}
	return append(b, '}', '\n')
}

// appendValue appends a value.Value as encoding/json renders the
// untagged struct.
func appendValue(b []byte, v *value.Value) []byte {
	b = strconv.AppendInt(append(b, `{"T":{"Kind":`...), int64(v.T.Kind), 10)
	b = appendString(append(b, `,"Universe":`...), v.T.Universe)
	b = appendString(append(b, `,"Name":`...), v.T.Name)
	b = strconv.AppendInt(append(b, `},"I":`...), v.I, 10)
	b = appendString(append(b, `,"S":`...), v.S)
	b = strconv.AppendUint(append(b, `,"Set":`...), v.Set, 10)
	return append(b, '}')
}

// appendRevokeResponse appends exactly what the encoder writes for res.
func appendRevokeResponse(b []byte, res RevokeResponse) []byte {
	if res.OK {
		return append(b, "{\"ok\":true}\n"...)
	}
	return append(b, "{\"ok\":false}\n"...)
}

// appendString appends s as a JSON string. Printable ASCII that the
// encoder passes through untouched is copied; a string holding
// anything it would escape or repair (quotes, backslashes, the HTML
// trio, control bytes, DEL and everything non-ASCII) is the encoder's
// to render.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// clientString is c.String() — "%s/%d@%d" — without fmt.
func clientString(c ids.ClientID) string {
	var a [64]byte
	b := append(a[:0], c.Host...)
	b = strconv.AppendUint(append(b, '/'), c.ID, 10)
	b = strconv.AppendInt(append(b, '@'), c.BootTime.Unix(), 10)
	return string(b)
}
