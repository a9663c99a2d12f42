// Package clock provides an abstraction over time so that the OASIS
// simulations and the distributed-event experiments of the paper
// (clock drift, delay, event horizons) can run deterministically.
//
// Production code uses Real(); simulations and tests use a Virtual clock
// that only advances when told to, and that can model per-host drift.
package clock

import (
	"sync"
	"time"
)

// Clock supplies the current time and timer facilities. It is the only
// source of time for every package in this module.
type Clock interface {
	// Now returns the current instant according to this clock.
	Now() time.Time
	// After returns a channel that receives the then-current time once
	// the clock has advanced by at least d.
	After(d time.Duration) <-chan time.Time
}

// Real returns a Clock backed by the system clock.
func Real() Clock { return realClock{} }

type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Virtual is a manually advanced clock. The zero value is not usable;
// construct with NewVirtual.
type Virtual struct {
	mu      sync.Mutex
	now     time.Time
	waiters []waiter
}

type waiter struct {
	at time.Time
	ch chan time.Time
}

// NewVirtual returns a Virtual clock starting at the given instant.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{now: start}
}

// Now returns the virtual current time.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// After returns a channel that fires when the virtual clock is advanced
// past d from now.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	ch := make(chan time.Time, 1)
	at := v.now.Add(d)
	if d <= 0 {
		ch <- v.now
		return ch
	}
	v.waiters = append(v.waiters, waiter{at: at, ch: ch})
	return ch
}

// Advance moves the clock forward by d, firing any timers that become due.
func (v *Virtual) Advance(d time.Duration) {
	v.mu.Lock()
	v.now = v.now.Add(d)
	now := v.now
	var remaining []waiter
	var due []waiter
	for _, w := range v.waiters {
		if !w.at.After(now) {
			due = append(due, w)
		} else {
			remaining = append(remaining, w)
		}
	}
	v.waiters = remaining
	v.mu.Unlock()
	for _, w := range due {
		w.ch <- now
	}
}

var _ Clock = (*Virtual)(nil)

// Drifting wraps a Clock and applies a constant offset, modelling the
// imperfect clock synchronisation discussed in section 6.8.4 of the paper.
type Drifting struct {
	base   Clock
	offset time.Duration
}

// NewDrifting returns a clock that reads base plus a constant offset.
//
//oasislint:keep §6.8.4 imperfect clock synchronisation
func NewDrifting(base Clock, offset time.Duration) *Drifting {
	return &Drifting{base: base, offset: offset}
}

// Now returns the drifted time.
func (d *Drifting) Now() time.Time { return d.base.Now().Add(d.offset) }

// After delegates to the base clock; drift affects reported instants,
// not durations.
func (d *Drifting) After(dur time.Duration) <-chan time.Time { return d.base.After(dur) }

var _ Clock = (*Drifting)(nil)
