package gateway

import (
	"encoding/base64"
	"encoding/json"
	"math"
	"strconv"
	"time"

	"oasis/internal/cert"
	"oasis/internal/ids"
	"oasis/internal/value"
)

// The bodies of the hot routes — introspection, its twin
// revoke-by-token, and role entry — are handled without reflection: the
// request is recognised in place, where the body was read, and the
// response is appended to the reply by hand. Both halves are exact or
// absent: a request the scanner does not accept goes to decode, a
// response the appender cannot render goes to writeJSON and a string it
// cannot copy verbatim through json.Marshal, so the wire format has one
// definition (encoding/json) and this file only short-cuts the inputs
// it can prove equivalent (FuzzIntrospectBody, FuzzTokenBody,
// TestAppendMatchesEncoder, TestWireShapeMatchesStructs). A body that
// ended short of its length is offered like a whole one: the decoder
// stops at the end of the first value and the scanner accepts nothing
// but whitespace after it, so on a body the scanner accepts the decoder
// never reaches the error.

// scanner recognises, in one pass and in place, the bodies decode is
// known to read exactly as it does: objects whose keys are the schema's
// own, exact in case and each at most once; strings of printable ASCII
// without '"' and '\\'; integers without fraction, exponent or leading
// zero and in range for their field; JSON whitespace between tokens.
// Everything else fails the scan and is decode's: escapes, other keys
// (encoding/json folds case), duplicates (it merges them), null, bytes
// after the closing brace (Decoder.Decode never looks at them). A
// failed scan leaves its destination half-filled.
type scanner struct {
	b []byte
	i int
}

// The schemas: each object's keys, in the order its scan function
// switches on. TestWireShapeMatchesStructs holds them to the structs.
var (
	tokenKeys   = []string{"token"}
	requestKeys = []string{"client", "rolefile", "role", "args", "creds"} // a delegation is decode's
	clientKeys  = []string{"Host", "ID", "BootTime"}
	valueKeys   = []string{"T", "I", "S", "Set"}
	typeKeys    = []string{"Kind", "Universe", "Name"}
	rmcKeys     = []string{"Service", "Rolefile", "Roles", "Args", "Client", "CRR", "Expiry", "Sig"}
	refKeys     = []string{"Index", "Magic"}
)

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// eat skips whitespace and consumes c if it is next.
func (s *scanner) eat(c byte) bool {
	s.i = skipSpace(s.b, s.i)
	if s.i == len(s.b) || s.b[s.i] != c {
		return false
	}
	s.i++
	return true
}

// end reports that nothing but whitespace is left.
func (s *scanner) end() bool { return skipSpace(s.b, s.i) == len(s.b) }

// list scans open item , … close — an array ('[', ']') or the members of
// an object — calling item to scan each.
func (s *scanner) list(open, close byte, item func() bool) bool {
	if !s.eat(open) {
		return false
	}
	if s.eat(close) {
		return true
	}
	for item() {
		if s.eat(close) {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
	return false
}

// object scans { "key" : value , … }, calling field with the index in
// keys of each key to scan its value.
func (s *scanner) object(keys []string, field func(k int) bool) bool {
	seen := 0
	return s.list('{', '}', func() bool {
		name, ok := s.str()
		k := 0
		for k < len(keys) && keys[k] != string(name) {
			k++
		}
		if !ok || k == len(keys) || seen&(1<<k) != 0 {
			return false
		}
		seen |= 1 << k
		return s.eat(':') && field(k)
	})
}

// str scans a string literal and returns its contents, which alias the
// buffer.
func (s *scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20, c >= 0x7f, c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// text scans a string into a copy of its own: certificates and tokens
// outlive the request, its body does not.
func (s *scanner) text(dst *string) bool {
	lit, ok := s.str()
	*dst = string(lit)
	return ok
}

// digits scans an unsigned integer of at most max that starts at the
// next byte. A leading zero or a digit too many fails here; a fraction
// or an exponent fails the caller, which finds it where a ',' or a
// closing bracket must be.
func (s *scanner) digits(max uint64) (n uint64, ok bool) {
	start := s.i
	for ; s.i < len(s.b) && s.b[s.i]-'0' <= 9; s.i++ {
		d := uint64(s.b[s.i] - '0')
		if n > (max-d)/10 || (n == 0 && s.i > start) {
			return 0, false
		}
		n = n*10 + d
	}
	return n, s.i > start
}

// scanUint scans an integer into an unsigned field of any width.
func scanUint[T ~uint32 | ~uint64](s *scanner, dst *T) bool {
	s.i = skipSpace(s.b, s.i)
	n, ok := s.digits(uint64(^T(0)))
	*dst = T(n)
	return ok
}

// scanInt is scanUint for a signed field.
func scanInt[T ~int | ~int64](s *scanner, dst *T) bool {
	max := uint64(math.MaxInt64)
	neg := s.eat('-')
	if neg {
		max++
	}
	n, ok := s.digits(max)
	if neg {
		n = -n
	}
	*dst = T(n)
	return ok && int64(*dst) == int64(n)
}

// time hands a string literal, quotes included, to Time.UnmarshalJSON
// as decode does.
func (s *scanner) time(dst *time.Time) bool {
	start := skipSpace(s.b, s.i)
	_, ok := s.str()
	return ok && dst.UnmarshalJSON(s.b[start:s.i]) == nil
}

// canonicalToken recognises {"token":"T"} for a non-empty T, which it
// returns aliasing b — the only bodies for which decoding into
// IntrospectRequest or RevokeRequest is known to yield Token == T and
// nothing else.
func canonicalToken(b []byte) ([]byte, bool) {
	s := scanner{b: b}
	var tok []byte
	if s.object(tokenKeys, func(int) (ok bool) {
		tok, ok = s.str()
		return ok
	}) && s.end() && len(tok) > 0 {
		return tok, true
	}
	return nil, false
}

// tokenRequest recognises a whole TokenRequest body.
func tokenRequest(b []byte, req *TokenRequest) bool {
	s := &scanner{b: b}
	return s.object(requestKeys, func(k int) bool {
		switch k {
		case 0:
			return s.client(&req.Client)
		case 1:
			return s.text(&req.Rolefile)
		case 2:
			return s.text(&req.Role)
		case 3:
			return s.values(&req.Args)
		}
		req.Creds = []*cert.RMC{}
		return s.list('[', ']', func() bool {
			c := new(cert.RMC)
			req.Creds = append(req.Creds, c)
			return s.rmc(c)
		})
	}) && s.end()
}

func (s *scanner) client(c *ids.ClientID) bool {
	return s.object(clientKeys, func(k int) bool {
		switch k {
		case 0:
			return s.text(&c.Host)
		case 1:
			return scanUint(s, &c.ID)
		}
		return s.time(&c.BootTime)
	})
}

// values scans an argument list; like decode it makes of [] an empty
// list, not a nil one.
func (s *scanner) values(dst *[]value.Value) bool {
	*dst = []value.Value{}
	return s.list('[', ']', func() bool {
		if cap(*dst) == 0 {
			*dst = make([]value.Value, 0, 4) // few roles take more: one allocation, not three
		}
		*dst = append(*dst, value.Value{})
		return s.value(&(*dst)[len(*dst)-1])
	})
}

func (s *scanner) value(v *value.Value) bool {
	return s.object(valueKeys, func(k int) bool {
		switch k {
		case 0:
			return s.object(typeKeys, func(k int) bool {
				switch k {
				case 0:
					return scanInt(s, &v.T.Kind)
				case 1:
					return s.text(&v.T.Universe)
				}
				return s.text(&v.T.Name)
			})
		case 1:
			return scanInt(s, &v.I)
		case 2:
			return s.text(&v.S)
		}
		return scanUint(s, &v.Set)
	})
}

func (s *scanner) rmc(c *cert.RMC) bool {
	return s.object(rmcKeys, func(k int) bool {
		switch k {
		case 0:
			return s.text(&c.Service)
		case 1:
			return s.text(&c.Rolefile)
		case 2:
			return scanUint(s, &c.Roles)
		case 3:
			return s.values(&c.Args)
		case 4:
			return s.client(&c.Client)
		case 5:
			return s.object(refKeys, func(k int) bool {
				if k == 0 {
					return scanUint(s, &c.CRR.Index)
				}
				return scanUint(s, &c.CRR.Magic)
			})
		case 6:
			return s.time(&c.Expiry)
		}
		// As decode does it: "" is an empty signature, not a nil one.
		lit, ok := s.str()
		c.Sig = make([]byte, base64.StdEncoding.DecodedLen(len(lit)))
		n, err := base64.StdEncoding.Decode(c.Sig, lit)
		c.Sig = c.Sig[:n]
		return ok && err == nil
	})
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
		b = appendList(append(b, `,"roles":`...), res.Roles, appendString)
	}
	if len(res.Args) > 0 {
		b = appendList(append(b, `,"args":`...), res.Args, appendValue)
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

// appendTokenResponse appends exactly what the encoder writes for res,
// trailing newline included; ok is false where the encoder would not
// have written at all (appendTime).
func appendTokenResponse(b []byte, res *TokenResponse) (_ []byte, ok bool) {
	b = appendString(append(b, `{"access_token":`...), res.Token)
	b = appendString(append(b, `,"token_type":`...), res.TokenType)
	if res.ExpiresIn != 0 {
		b = strconv.AppendInt(append(b, `,"expires_in":`...), res.ExpiresIn, 10)
	}
	b = appendString(append(b, `,"issuer":`...), res.Issuer)
	b = appendString(append(b, `,"rolefile":`...), res.Rolefile)
	b = appendList(append(b, `,"roles":`...), res.Roles, appendString)
	if len(res.Args) > 0 {
		b = appendList(append(b, `,"args":`...), res.Args, appendValue)
	}
	ok = true
	if res.Cert != nil {
		b, ok = appendRMC(append(b, `,"cert":`...), res.Cert)
	}
	return append(b, '}', '\n'), ok
}

// appendRMC appends a certificate as encoding/json renders the untagged
// struct.
func appendRMC(b []byte, c *cert.RMC) (_ []byte, ok bool) {
	b = appendString(append(b, `{"Service":`...), c.Service)
	b = appendString(append(b, `,"Rolefile":`...), c.Rolefile)
	b = strconv.AppendUint(append(b, `,"Roles":`...), uint64(c.Roles), 10)
	b = appendList(append(b, `,"Args":`...), c.Args, appendValue)
	b = appendString(append(b, `,"Client":{"Host":`...), c.Client.Host)
	b = strconv.AppendUint(append(b, `,"ID":`...), c.Client.ID, 10)
	b, bootOK := appendTime(append(b, `,"BootTime":`...), c.Client.BootTime)
	b = strconv.AppendUint(append(b, `},"CRR":{"Index":`...), uint64(c.CRR.Index), 10)
	b = strconv.AppendUint(append(b, `,"Magic":`...), uint64(c.CRR.Magic), 10)
	b, expiryOK := appendTime(append(b, `},"Expiry":`...), c.Expiry)
	if c.Sig == nil {
		b = append(b, `,"Sig":null}`...)
	} else {
		b = base64.StdEncoding.AppendEncode(append(b, `,"Sig":"`...), c.Sig)
		b = append(b, '"', '}')
	}
	return b, bootOK && expiryOK
}

// appendTime appends t as Time.MarshalJSON renders it; ok is false for
// the instants that refuses — a year outside 0…9999, a zone a day or
// more from UTC — and the encoder fails on.
func appendTime(b []byte, t time.Time) (_ []byte, ok bool) {
	year := t.Year()
	_, offset := t.Zone()
	ok = year >= 0 && year <= 9999 && offset > -24*3600 && offset < 24*3600
	b = t.AppendFormat(append(b, '"'), time.RFC3339Nano)
	return append(b, '"'), ok
}

// appendList appends a list as the encoder has it: null for a nil one.
func appendList[T any](b []byte, list []T, elem func([]byte, T) []byte) []byte {
	if list == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, e := range list {
		if i > 0 {
			b = append(b, ',')
		}
		b = elem(b, e)
	}
	return append(b, ']')
}

// appendValue appends a value.Value as encoding/json renders the
// untagged struct.
func appendValue(b []byte, v value.Value) []byte {
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
