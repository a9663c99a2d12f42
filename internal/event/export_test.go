package event

import "oasis/internal/value"

// Probes and conveniences only this package's tests use.

// SessionCount reports the number of open sessions.
func (b *Broker) SessionCount() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.sessions)
}

// BufferedCount reports the number of occurrences held for retrospective
// registration.
func (b *Broker) BufferedCount() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.buffer)
}

// Ground reports whether the template has no wildcards and all variables
// are bound in env; a ground template can be compared against a concrete
// event without producing new bindings.
func (t Template) Ground(env value.Env) bool {
	for _, p := range t.Params {
		if p.Wild {
			return false
		}
		if p.Var != "" {
			if _, ok := env[p.Var]; !ok {
				return false
			}
		}
	}
	return true
}

// MustParseIDL panics on error; for static definitions.
func MustParseIDL(src string) *InterfaceDef {
	d, err := ParseIDL(src)
	if err != nil {
		panic(err)
	}
	return d
}

// Silent reports whether the source is currently presumed failed.
func (r *Receiver) Silent(source string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.silent[source]
}
