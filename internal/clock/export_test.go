package clock

import "time"

// Set jumps the clock to the given instant (which must not be earlier
// than the current virtual time; earlier instants are ignored).
func (v *Virtual) Set(t time.Time) {
	v.mu.Lock()
	if t.Before(v.now) {
		v.mu.Unlock()
		return
	}
	d := t.Sub(v.now)
	v.mu.Unlock()
	v.Advance(d)
}
