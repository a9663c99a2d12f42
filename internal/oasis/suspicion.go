package oasis

import "time"

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
// revocations. With Options.AutoResync the resync is attempted
// automatically when a degraded source is heard from again.

// SourceState is the suspicion level of one watched source.
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

// sourceVars is Vars' "sources": each watched source's suspicion state
// and the seconds since its event horizon, the last it was heard of.
func (s *Service) sourceVars() any {
	now := s.clk.Now()
	sources := make(map[string]any)
	for _, src := range s.receiver.Sources() {
		h, _ := s.receiver.Horizon(src)
		sources[src] = map[string]any{"state": s.SourceStatus(src).String(), "silent_s": now.Sub(h).Seconds()}
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
	if to != SourceAlive {
		s.unheard[source] = true
	}
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
// rather than trusted outright.
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
			if s.SourceStatus(src) == SourceAlive {
				s.setSourceState(src, SourceSuspect)
			}
		default:
			if s.SourceStatus(src) != SourceAlive && s.opts.AutoResync {
				s.tryResync(src)
			}
		}
	}
}

// tryResync attempts recovery of a degraded source (ResyncSource
// returns it to Alive on success). One resync per source runs at a
// time: a gap or a revival observed while one is in flight is covered
// by the snapshot it is about to apply.
func (s *Service) tryResync(source string) {
	s.suspMu.Lock()
	if s.resyncing[source] {
		s.suspMu.Unlock()
		return
	}
	s.resyncing[source] = true
	s.suspMu.Unlock()
	defer func() {
		s.suspMu.Lock()
		delete(s.resyncing, source)
		s.suspMu.Unlock()
	}()
	_ = s.ResyncSource(source) // a failure leaves the source degraded; the next tick tries again
}

// onNotificationGap handles a detected sequence gap: the lost
// notification may have been a revocation, so the source's records
// fail safe to Unknown immediately. The source itself is demonstrably
// alive (the gap was detected on a delivery), so with AutoResync the
// truth is restored in the same breath.
func (s *Service) onNotificationGap(source string) {
	if s.SourceStatus(source) == SourceAlive {
		s.setSourceState(source, SourceSuspect)
	}
	if s.opts.AutoResync {
		s.tryResync(source)
	}
}

// heard disarms the source's unheard bit and reports whether it was
// armed: whether this is the first word from it since it was degraded.
func (s *Service) heard(source string) bool {
	s.suspMu.Lock()
	defer s.suspMu.Unlock()
	armed := s.unheard[source]
	delete(s.unheard, source)
	return armed
}
