package value

import (
	"fmt"
	"strconv"
	"strings"
)

// The inverse of Marshal and MarshalArgs. Nothing parses the canonical
// form — certificates travel in the bus codec or as JSON — but the
// round-trip and fuzz tests prove with it that the form is injective:
// marshalled equality is Equal.

// Unmarshal parses the wire form produced by Marshal.
func Unmarshal(s string) (Value, error) {
	if len(s) < 2 || s[1] != ':' {
		return Value{}, fmt.Errorf("value: malformed wire value %q", s)
	}
	body := s[2:]
	switch s[0] {
	case 'i':
		i, err := strconv.ParseInt(body, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("value: bad integer %q: %v", body, err)
		}
		return Int(i), nil
	case 's':
		str, err := strconv.Unquote(body)
		if err != nil {
			return Value{}, fmt.Errorf("value: bad string %q: %v", body, err)
		}
		return Str(str), nil
	case 'b':
		i := strings.LastIndexByte(body, ':')
		if i < 0 {
			return Value{}, fmt.Errorf("value: bad set %q", body)
		}
		bits, err := strconv.ParseUint(body[i+1:], 16, 64)
		if err != nil {
			return Value{}, fmt.Errorf("value: bad set bits %q: %v", body[i+1:], err)
		}
		return Value{T: SetType(body[:i]), Set: bits}, nil
	case 'o':
		i := strings.IndexByte(body, ':')
		if i < 0 {
			return Value{}, fmt.Errorf("value: bad object %q", body)
		}
		return Object(body[:i], body[i+1:]), nil
	default:
		return Value{}, fmt.Errorf("value: unknown wire kind %q", s[0])
	}
}

// UnmarshalArgs parses a vector produced by MarshalArgs.
func UnmarshalArgs(s string) ([]Value, error) {
	if s == "" {
		return nil, nil
	}
	// Values may contain commas only inside quoted strings; split carefully.
	var (
		args  []Value
		depth bool // inside quotes
		start int
	)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				v, err := Unmarshal(s[start:i])
				if err != nil {
					return nil, err
				}
				args = append(args, v)
				start = i + 1
			}
		}
	}
	v, err := Unmarshal(s[start:])
	if err != nil {
		return nil, err
	}
	return append(args, v), nil
}
