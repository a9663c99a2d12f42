// Package event implements the OASIS event architecture of chapter 6 of
// the paper: typed, parametrised events; event templates with wild-card
// and variable parameters (query by example); client registration and
// notification; pre-registration and retrospective registration
// (section 6.8.1); and the heartbeat protocol with event-horizon
// timestamps that underpins failure detection (sections 4.10 and 6.8.2).
package event

import (
	"fmt"
	"strings"
	"time"

	"oasis/internal/value"
)

// Event is a generic event object: a named, parametrised occurrence
// signalled by an event server (glossary). The representation is type and
// machine independent; concrete event types provide constructors and
// destructors over it (section 6.2.1).
type Event struct {
	Name   string        // event type, e.g. "Printer.Finished"
	Source string        // instance of the issuing service
	Args   []value.Value // typed, marshalled-comparable arguments
	Time   time.Time     // occurrence timestamp at the source
	Seq    uint64        // per-source sequence number (section 4.10)
}

// String renders the event for logs and tests.
func (e Event) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)@%d", e.Name, strings.Join(parts, ","), e.Time.UnixNano())
}

// New constructs a generic event object; Source, Time and Seq are filled
// in by the signalling broker.
func New(name string, args ...value.Value) Event {
	return Event{Name: name, Args: args}
}

// Param is one parameter position of a Template: a wildcard, a variable
// to be bound during matching, or a literal.
type Param struct {
	Wild bool
	Var  string
	Lit  value.Value
}

// Wildcard is the "*" parameter.
func Wildcard() Param { return Param{Wild: true} }

// Var names a variable parameter; it matches anything if unbound in the
// environment, and must equal its binding otherwise.
func Var(name string) Param { return Param{Var: name} }

// Lit is a literal parameter that must match exactly.
func Lit(v value.Value) Param { return Param{Lit: v} }

// Template is an event specification, possibly with wild-card or
// variable parameters (glossary: event template; cf. query by example).
type Template struct {
	Name   string
	Params []Param
}

// NewTemplate builds a template.
func NewTemplate(name string, params ...Param) Template {
	return Template{Name: name, Params: params}
}

// String renders the template.
func (t Template) String() string {
	parts := make([]string, len(t.Params))
	for i, p := range t.Params {
		switch {
		case p.Wild:
			parts[i] = "*"
		case p.Var != "":
			parts[i] = p.Var
		default:
			parts[i] = p.Lit.String()
		}
	}
	return fmt.Sprintf("%s(%s)", t.Name, strings.Join(parts, ","))
}

// Match reports whether the event matches the template under env, per
// section 6.5: a base event matches if it has the template's type and
// each template parameter is a wildcard, an equal literal, a variable
// unbound in env, or a variable bound in env to an equal value. On match
// it returns env extended with all newly bound variables.
func (t Template) Match(e Event, env value.Env) (value.Env, bool) {
	if t.Name != e.Name || len(t.Params) != len(e.Args) {
		return nil, false
	}
	out := env
	for i, p := range t.Params {
		arg := e.Args[i]
		switch {
		case p.Wild:
			// matches anything, binds nothing
		case p.Var != "":
			if bound, ok := out[p.Var]; ok {
				if !bound.Equal(arg) {
					return nil, false
				}
			} else {
				out = out.Extend(p.Var, arg)
			}
		default:
			if !p.Lit.Equal(arg) {
				return nil, false
			}
		}
	}
	return out, true
}

// Matches is Match with an empty environment, discarding bindings.
func (t Template) Matches(e Event) bool {
	_, ok := t.Match(e, value.Env{})
	return ok
}

// Instantiate substitutes env bindings into variable parameters, leaving
// unbound variables in place. Used when registering interest: the merged
// template restricts notification to truly interesting events (§6.7).
func (t Template) Instantiate(env value.Env) Template {
	out := Template{Name: t.Name, Params: make([]Param, len(t.Params))}
	for i, p := range t.Params {
		if p.Var != "" {
			if v, ok := env[p.Var]; ok {
				out.Params[i] = Lit(v)
				continue
			}
		}
		out.Params[i] = p
	}
	return out
}
