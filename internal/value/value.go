// Package value implements the strongly typed argument system that RDL
// roles and OASIS certificates share (sections 3.2.1 and 4.3 of the
// paper).
//
// Role arguments may be Integers, Strings, set types such as {rwx}, or
// named object types. Object and set types are deliberately "simple":
// there is no sub-typing. Arguments are marshalled into a host-independent
// form so that services other than the issuer can examine them; object
// identifiers may only be compared for equality in their marshalled form,
// and sets marshal to a bit-set supporting equality and subset tests.
package value

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the RDL argument kinds.
type Kind int

// The argument kinds of RDL.
const (
	KindInt Kind = iota + 1
	KindString
	KindSet
	KindObject
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "Integer"
	case KindString:
		return "String"
	case KindSet:
		return "Set"
	case KindObject:
		return "Object"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Type describes an RDL argument type. For sets, Universe gives the
// ordered alphabet of allowed elements (e.g. "rwx"); for objects, Name
// identifies the object type whose literals the issuing service parses.
type Type struct {
	Kind     Kind
	Universe string // set types: ordered element alphabet
	Name     string // object types: type name, e.g. "Login.userid"
}

// String renders the type in RDL surface syntax.
func (t Type) String() string {
	switch t.Kind {
	case KindInt:
		return "integer"
	case KindString:
		return "string"
	case KindSet:
		return "{" + t.Universe + "}"
	case KindObject:
		return t.Name
	default:
		return "invalid"
	}
}

// Equal reports type identity. There is no compatibility relation
// between distinct types (section 3.2.1).
func (t Type) Equal(o Type) bool { return t == o }

// IntType, StringType are the built-in scalar types.
var (
	IntType    = Type{Kind: KindInt}
	StringType = Type{Kind: KindString}
)

// SetType returns the set type over the given element alphabet.
func SetType(universe string) Type { return Type{Kind: KindSet, Universe: universe} }

// ObjectType returns a named object type.
func ObjectType(name string) Type { return Type{Kind: KindObject, Name: name} }

// Value is a typed RDL value. Exactly one of the payload fields is
// meaningful, selected by T.Kind.
type Value struct {
	T   Type
	I   int64  // KindInt
	S   string // KindString; KindObject holds the marshalled object id
	Set uint64 // KindSet: bit i set means Universe[i] present
}

// Int constructs an integer value.
func Int(i int64) Value { return Value{T: IntType, I: i} }

// Str constructs a string value.
func Str(s string) Value { return Value{T: StringType, S: s} }

// Object constructs an object-identifier value of the given type name.
// The id is the marshalled, host-independent form.
func Object(typeName, id string) Value {
	return Value{T: ObjectType(typeName), S: id}
}

// Set constructs a set value over a universe from its member string.
// Elements not in the universe are rejected.
func Set(universe, members string) (Value, error) {
	v := Value{T: SetType(universe)}
	for _, m := range members {
		i := strings.IndexRune(universe, m)
		if i < 0 {
			return Value{}, fmt.Errorf("value: element %q not in set universe {%s}", m, universe)
		}
		v.Set |= 1 << uint(i)
	}
	return v, nil
}

// MustSet is Set for known-good literals; it panics on error and is
// intended for tests and static tables.
func MustSet(universe, members string) Value {
	v, err := Set(universe, members)
	if err != nil {
		panic(err)
	}
	return v
}

// Members returns the set elements as a string in universe order.
func (v Value) Members() string {
	if v.T.Kind != KindSet {
		return ""
	}
	var b strings.Builder
	for i, r := range v.T.Universe {
		if v.Set&(1<<uint(i)) != 0 {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Equal is the only admissible comparison for objects; it is also defined
// for every other kind.
func (v Value) Equal(o Value) bool {
	if !v.T.Equal(o.T) {
		return false
	}
	switch v.T.Kind {
	case KindInt:
		return v.I == o.I
	case KindString, KindObject:
		return v.S == o.S
	case KindSet:
		return v.Set == o.Set
	default:
		return false
	}
}

// SubsetOf reports whether v ⊆ o; both must be sets over the same
// universe (section 4.3: bit-sets allow equality and subset tests).
func (v Value) SubsetOf(o Value) (bool, error) {
	if v.T.Kind != KindSet || !v.T.Equal(o.T) {
		return false, fmt.Errorf("value: subset test requires sets of identical type, got %v and %v", v.T, o.T)
	}
	return v.Set&^o.Set == 0, nil
}

// Union returns v ∪ o over the same universe.
func (v Value) Union(o Value) (Value, error) {
	if v.T.Kind != KindSet || !v.T.Equal(o.T) {
		return Value{}, fmt.Errorf("value: union requires sets of identical type")
	}
	return Value{T: v.T, Set: v.Set | o.Set}, nil
}

// Intersect returns v ∩ o over the same universe.
func (v Value) Intersect(o Value) (Value, error) {
	if v.T.Kind != KindSet || !v.T.Equal(o.T) {
		return Value{}, fmt.Errorf("value: intersection requires sets of identical type")
	}
	return Value{T: v.T, Set: v.Set & o.Set}, nil
}

// Minus returns v \ o over the same universe.
func (v Value) Minus(o Value) (Value, error) {
	if v.T.Kind != KindSet || !v.T.Equal(o.T) {
		return Value{}, fmt.Errorf("value: difference requires sets of identical type")
	}
	return Value{T: v.T, Set: v.Set &^ o.Set}, nil
}

// String renders the value in RDL literal syntax.
func (v Value) String() string {
	switch v.T.Kind {
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindString:
		return strconv.Quote(v.S)
	case KindSet:
		return "{" + v.Members() + "}"
	case KindObject:
		return v.T.Name + ":" + v.S
	default:
		return "<invalid>"
	}
}

// Marshal renders the value in the host-independent wire form used inside
// certificates. The form is self-describing and canonical: equal values
// marshal identically, so marshalled equality equals Equal.
func (v Value) Marshal() string {
	switch v.T.Kind {
	case KindInt:
		return "i:" + strconv.FormatInt(v.I, 10)
	case KindString:
		return "s:" + strconv.Quote(v.S)
	case KindSet:
		return "b:" + v.T.Universe + ":" + strconv.FormatUint(v.Set, 16)
	case KindObject:
		return "o:" + v.T.Name + ":" + v.S
	default:
		return "?"
	}
}

// MarshalArgs renders an argument vector canonically for embedding in a
// certificate signature.
func MarshalArgs(args []Value) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = a.Marshal()
	}
	return strings.Join(parts, ",")
}

// Env is a variable environment mapping RDL variable names to values.
// Environments are persistent-ish: Extend copies, so earlier bindings are
// never mutated (important for independent composite-event evaluations).
type Env map[string]Value

// Extend returns a copy of e with name bound to v.
func (e Env) Extend(name string, v Value) Env {
	n := make(Env, len(e)+1)
	for k, val := range e {
		n[k] = val
	}
	n[name] = v
	return n
}

// Clone returns a copy of e.
func (e Env) Clone() Env {
	n := make(Env, len(e))
	for k, v := range e {
		n[k] = v
	}
	return n
}

// Names returns the bound variable names in sorted order.
func (e Env) Names() []string {
	names := make([]string, 0, len(e))
	for k := range e {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// String renders the environment deterministically.
func (e Env) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range e.Names() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(e[n].String())
	}
	b.WriteByte('}')
	return b.String()
}
