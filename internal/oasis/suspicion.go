package oasis

import (
	"sync/atomic"
	"time"

	"oasis/internal/event"
)

// Failure suspicion for watched sources (§4.10 / §6.8.4). A service that
// holds external credential records watches the issuing source's
// heartbeats. Silence degrades the source in two steps:
//
//	Alive ──(> 1.5 heartbeat periods silent)──▶ Suspect
//	Suspect ──(≥ FailsafeMissed periods silent)──▶ Failed
//
// Suspect marks every dependent record Unknown — validation already
// fails, but a resync can cheaply restore the truth. Failed goes
// further and fails the records safe to False (§6.8.4): the service
// now behaves exactly as if the certificates had been revoked, even if
// the partition later turns out to have been a network fault.
//
// Recovery is never granted on silence ending alone: a source returns
// to Alive only through a successful resync (ResyncSource), because
// the notifications lost during the silence may have included
// revocations. With Options.AutoResync a resync is started — never
// waited for — whenever a degraded source is heard from again, or a
// notification gap is found: nothing on the duty loop, in Deliver or in
// a gap callback calls a peer.
//
// One rule orders a source's notifications around every resync, however
// it was started: while it is in flight, Deliver holds the source's
// notes in its slot, in arrival order, and the resync delivers them only
// once its snapshot is applied (resync).

// SourceState is the suspicion level of one watched source. The levels
// are ordered: a source degrades only upwards, so the max of its level
// and another degrades it no further than it already is.
type SourceState int

const (
	SourceAlive SourceState = iota
	SourceSuspect
	SourceFailed
)

func (s SourceState) String() string {
	switch s {
	case SourceAlive:
		return "alive"
	case SourceSuspect:
		return "suspect"
	case SourceFailed:
		return "failed"
	}
	return "invalid"
}

// SourceStatus reports the current suspicion level of a source.
func (s *Service) SourceStatus(source string) SourceState {
	s.suspMu.Lock()
	defer s.suspMu.Unlock()
	return s.suspicion[source]
}

// sourceVars is Vars' "sources": each watched source's suspicion state,
// the seconds since its event horizon, the last it was heard of, whether
// a resync of it is in flight, and how many of its notes wait behind it.
func (s *Service) sourceVars() any {
	now := s.clk.Now()
	sources := make(map[string]any)
	for _, src := range s.receiver.Sources() {
		h, _ := s.receiver.Horizon(src)
		s.suspMu.Lock()
		r, held := s.resyncing[src], 0
		if r != nil {
			held = len(r.held)
		}
		sources[src] = map[string]any{"state": s.suspicion[src].String(), "silent_s": now.Sub(h).Seconds(), "resyncing": r != nil, "held": held}
		s.suspMu.Unlock()
	}
	return sources
}

// setSourceState applies one suspicion transition and its side effects.
// The store mutation runs outside suspMu (a leaf lock); it is one
// mutation, so a fail-safe cascade reaches each downstream watcher as
// one Modified event.
func (s *Service) setSourceState(source string, to SourceState) {
	s.suspMu.Lock()
	from := s.suspicion[source]
	if from == to {
		s.suspMu.Unlock()
		return
	}
	s.suspicion[source] = to
	s.suspMu.Unlock()

	switch to {
	case SourceSuspect:
		s.store.MarkSourceUnknown(source)
	case SourceFailed:
		s.store.MarkSourceFailsafe(source)
	}
	if cb := s.opts.OnSourceState; cb != nil {
		cb(source, from, to)
	}
}

// heartbeatPeriod returns the configured heartbeat period with its
// default applied.
func (s *Service) heartbeatPeriod() time.Duration {
	if s.opts.HeartbeatEvery > 0 {
		return s.opts.HeartbeatEvery
	}
	return 5 * time.Second
}

// silenceThresholds returns how long a source may stay silent before it
// is Suspect (1.5 heartbeat periods) and before it is Failed
// (Options.FailsafeMissed periods, default 3, never sooner than
// Suspect).
func (s *Service) silenceThresholds() (suspectAfter, failAfter time.Duration) {
	period := s.heartbeatPeriod()
	suspectAfter = period + period/2
	missed := s.opts.FailsafeMissed
	if missed <= 0 {
		missed = 3
	}
	return suspectAfter, max(time.Duration(missed)*period, suspectAfter)
}

// SuspicionTick advances the failure-suspicion machine: wire it to the
// same cadence as HeartbeatTick (or use StartDuties). Each watched
// source's event horizon is compared against the heartbeat period;
// silence past 1.5 periods makes the source Suspect, silence past
// Options.FailsafeMissed periods makes it Failed. A degraded source
// whose heartbeats have resumed is resynced (when AutoResync is set)
// rather than trusted outright; the tick starts that resync and does
// not wait for it.
func (s *Service) SuspicionTick() {
	suspectAfter, failAfter := s.silenceThresholds()
	now := s.clk.Now()
	for _, src := range s.receiver.Sources() {
		h, ok := s.receiver.Horizon(src)
		if !ok {
			continue
		}
		silence := now.Sub(h)
		switch {
		case silence >= failAfter:
			s.setSourceState(src, SourceFailed)
		case silence >= suspectAfter:
			s.setSourceState(src, max(s.SourceStatus(src), SourceSuspect))
		default:
			s.tryResync(src)
		}
	}
}

// maxHeldNotes bounds the notes a source's slot holds behind its
// resync, the bound the issuer's link puts on the notes it queues for
// one watcher. Past it the held notes are dropped, and the resync
// leaves the source Suspect until the next one.
const maxHeldNotes = 1 << 16

// resyncSlot is a source's one resync in flight (Service.resyncing)
// and the notes Deliver holds behind it until its snapshot is applied.
type resyncSlot struct {
	held    []event.Notification
	dropped atomic.Bool   // the hold overflowed: notes were lost
	done    chan struct{} // closed when the slot is let go
}

// takeSlot takes a source's resync slot. One resync per source runs at
// a time: with wait, a caller waits for the one in flight to let the
// slot go; without, it gets nil, since the snapshot about to be applied
// covers whatever asked for another.
func (s *Service) takeSlot(source string, wait bool) *resyncSlot {
	s.suspMu.Lock()
	defer s.suspMu.Unlock()
	for r := s.resyncing[source]; r != nil; r = s.resyncing[source] {
		if !wait {
			return nil
		}
		s.suspMu.Unlock()
		<-r.done
		s.suspMu.Lock()
	}
	r := &resyncSlot{done: make(chan struct{})}
	s.resyncing[source] = r
	return r
}

// tryResync starts a resync of a degraded source with AutoResync and
// returns at once: the resync runs on a goroutine of its own, bounded
// by the bus's call deadline.
func (s *Service) tryResync(source string) {
	if s.opts.AutoResync && s.SourceStatus(source) != SourceAlive {
		if r := s.takeSlot(source, false); r != nil {
			go func() { _ = s.resync(source, r) }() // a failure leaves the source degraded; the next delivery or tick tries again
		}
	}
}

// resync runs a source's resync in the slot r, already taken. The
// snapshot is applied first, then the notes Deliver held meanwhile go
// through the receiver in arrival order; the slot is let go only once
// the hold is empty, so a note arriving while it drains queues behind
// the rest. A gap found while draining degrades the source again, and
// the resync runs once more before the slot goes.
func (s *Service) resync(source string, r *resyncSlot) error {
	for {
		err := s.applySnapshot(source, r)
		s.suspMu.Lock()
		for len(r.held) > 0 {
			n := r.held[0]
			r.held = r.held[1:]
			s.suspMu.Unlock()
			s.receiver.Deliver(n)
			s.suspMu.Lock()
		}
		if err == nil && s.suspicion[source] != SourceAlive {
			s.suspMu.Unlock()
			continue
		}
		delete(s.resyncing, source)
		close(r.done)
		s.suspMu.Unlock()
		return err
	}
}

// onNotificationGap handles a detected sequence gap: the lost
// notification may have been a revocation, so the source's records
// fail safe to Unknown immediately. The source itself is demonstrably
// alive (the gap was detected on a delivery), so with AutoResync a
// resync is started in the same breath.
func (s *Service) onNotificationGap(source string) {
	s.setSourceState(source, max(s.SourceStatus(source), SourceSuspect))
	s.tryResync(source)
}
