package event

import (
	"fmt"
	"strings"
	"unicode"

	"oasis/internal/value"
)

// This file implements the extended RPC interface definition language of
// §6.2.1: a service interface declares typed operations *and* typed
// events, so existing trading mechanisms can locate event servers and
// parameters pass naturally between the two domains.
//
//	interface Printer {
//	    int Print(string file);
//	    event Finished(int jobno);
//	    event Stalled(int jobno, string reason);
//	}
//
// Preprocessing an interface yields, for each event, a constructor that
// builds a generic event object from typed arguments and a destructor
// that unmarshals an instance back into its arguments (figure 6.1's
// steps 4 and 15). Services with events implicitly support the standard
// registration operations (Register, PreRegister, ...), which the Broker
// provides.

// InterfaceDef is a parsed interface definition.
type InterfaceDef struct {
	Name   string
	Ops    []OpDef
	Events []EventDef
}

// OpDef is one RPC operation signature.
type OpDef struct {
	Name   string
	Result value.Type // zero for void
	Params []ParamDef
}

// EventDef is one event type declared by the interface.
type EventDef struct {
	Name   string
	Params []ParamDef
}

// ParamDef is a typed, named parameter.
type ParamDef struct {
	Name string
	Type value.Type
}

// QualifiedName returns the event's wire name, Interface.Event.
func (e EventDef) QualifiedName(iface string) string { return iface + "." + e.Name }

// ParseIDL parses an interface definition.
//
//oasislint:keep §6.2.1 event interface definitions (figure 6.1)
func ParseIDL(src string) (*InterfaceDef, error) {
	toks := idlScan(src)
	p := &idlParser{toks: toks}
	return p.iface()
}

func idlScan(src string) []string {
	var out []string
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case strings.ContainsRune("{}();,", rune(c)):
			out = append(out, string(c))
			i++
		default:
			j := i
			for j < len(src) && (unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j])) || src[j] == '_') {
				j++
			}
			if j == i {
				out = append(out, string(c))
				i++
				continue
			}
			out = append(out, src[i:j])
			i = j
		}
	}
	return out
}

type idlParser struct {
	toks []string
	pos  int
}

func (p *idlParser) cur() string {
	if p.pos >= len(p.toks) {
		return ""
	}
	return p.toks[p.pos]
}

func (p *idlParser) advance() string {
	t := p.cur()
	p.pos++
	return t
}

func (p *idlParser) expect(s string) error {
	if p.cur() != s {
		return fmt.Errorf("event: idl: expected %q, found %q", s, p.cur())
	}
	p.pos++
	return nil
}

func (p *idlParser) iface() (*InterfaceDef, error) {
	if err := p.expect("interface"); err != nil {
		return nil, err
	}
	name := p.advance()
	if name == "" {
		return nil, fmt.Errorf("event: idl: missing interface name")
	}
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	def := &InterfaceDef{Name: name}
	for p.cur() != "}" && p.cur() != "" {
		if p.cur() == "event" {
			p.advance()
			ev, err := p.eventDef()
			if err != nil {
				return nil, err
			}
			def.Events = append(def.Events, ev)
		} else {
			op, err := p.opDef()
			if err != nil {
				return nil, err
			}
			def.Ops = append(def.Ops, op)
		}
	}
	if err := p.expect("}"); err != nil {
		return nil, err
	}
	return def, nil
}

func (p *idlParser) typeOf(tok string) (value.Type, error) {
	switch tok {
	case "int", "integer":
		return value.IntType, nil
	case "string":
		return value.StringType, nil
	case "void":
		return value.Type{}, nil
	default:
		if tok == "" || !unicode.IsLetter(rune(tok[0])) {
			return value.Type{}, fmt.Errorf("event: idl: bad type %q", tok)
		}
		return value.ObjectType(tok), nil
	}
}

func (p *idlParser) params() ([]ParamDef, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var out []ParamDef
	for p.cur() != ")" && p.cur() != "" {
		t, err := p.typeOf(p.advance())
		if err != nil {
			return nil, err
		}
		name := p.advance()
		if name == "" || name == "," || name == ")" {
			return nil, fmt.Errorf("event: idl: missing parameter name")
		}
		out = append(out, ParamDef{Name: name, Type: t})
		if p.cur() == "," {
			p.advance()
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *idlParser) eventDef() (EventDef, error) {
	name := p.advance()
	if name == "" {
		return EventDef{}, fmt.Errorf("event: idl: missing event name")
	}
	params, err := p.params()
	if err != nil {
		return EventDef{}, err
	}
	if err := p.expect(";"); err != nil {
		return EventDef{}, err
	}
	return EventDef{Name: name, Params: params}, nil
}

func (p *idlParser) opDef() (OpDef, error) {
	res, err := p.typeOf(p.advance())
	if err != nil {
		return OpDef{}, err
	}
	name := p.advance()
	if name == "" {
		return OpDef{}, fmt.Errorf("event: idl: missing operation name")
	}
	params, err := p.params()
	if err != nil {
		return OpDef{}, err
	}
	if err := p.expect(";"); err != nil {
		return OpDef{}, err
	}
	return OpDef{Name: name, Result: res, Params: params}, nil
}

// Event looks up an event definition by name.
func (d *InterfaceDef) Event(name string) (EventDef, bool) {
	for _, e := range d.Events {
		if e.Name == name {
			return e, true
		}
	}
	return EventDef{}, false
}

// Constructor returns the event constructor of figure 6.1 (step 4/10):
// it builds a generic event object from typed arguments, checking types
// against the declaration.
//
//oasislint:keep §6.2.1 event constructor (figure 6.1 steps 4, 10)
func (d *InterfaceDef) Constructor(eventName string) (func(args ...value.Value) (Event, error), error) {
	ev, ok := d.Event(eventName)
	if !ok {
		return nil, fmt.Errorf("event: interface %s declares no event %s", d.Name, eventName)
	}
	qname := ev.QualifiedName(d.Name)
	return func(args ...value.Value) (Event, error) {
		if len(args) != len(ev.Params) {
			return Event{}, fmt.Errorf("event: %s takes %d arguments, got %d", qname, len(ev.Params), len(args))
		}
		for i, a := range args {
			if !a.T.Equal(ev.Params[i].Type) {
				return Event{}, fmt.Errorf("event: %s argument %s has type %v, expected %v",
					qname, ev.Params[i].Name, a.T, ev.Params[i].Type)
			}
		}
		return New(qname, args...), nil
	}, nil
}

// Destructor returns the event destructor (figure 6.1, step 15): it
// checks the instance's type and returns its arguments.
//
//oasislint:keep §6.2.1 event destructor (figure 6.1 step 15)
func (d *InterfaceDef) Destructor(eventName string) (func(Event) ([]value.Value, error), error) {
	ev, ok := d.Event(eventName)
	if !ok {
		return nil, fmt.Errorf("event: interface %s declares no event %s", d.Name, eventName)
	}
	qname := ev.QualifiedName(d.Name)
	return func(e Event) ([]value.Value, error) {
		if e.Name != qname {
			return nil, fmt.Errorf("event: destructor for %s applied to %s", qname, e.Name)
		}
		if len(e.Args) != len(ev.Params) {
			return nil, fmt.Errorf("event: %s instance has %d arguments, expected %d", qname, len(e.Args), len(ev.Params))
		}
		return e.Args, nil
	}, nil
}

// Template builds a registration template for a declared event with the
// given parameters (wildcards, variables or literals), arity-checked.
//
//oasislint:keep §6.2.1 typed registration template (figure 6.1)
func (d *InterfaceDef) Template(eventName string, params ...Param) (Template, error) {
	ev, ok := d.Event(eventName)
	if !ok {
		return Template{}, fmt.Errorf("event: interface %s declares no event %s", d.Name, eventName)
	}
	if len(params) != len(ev.Params) {
		return Template{}, fmt.Errorf("event: %s takes %d parameters, got %d", ev.Name, len(ev.Params), len(params))
	}
	return Template{Name: ev.QualifiedName(d.Name), Params: params}, nil
}
