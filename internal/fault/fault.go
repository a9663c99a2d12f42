// Package fault is the deterministic fault-injection plane: it wraps
// the bus link layer (bus.LinkPolicy) with programmable, clock-driven
// fault schedules — per-link drop probability, duplication, reorder
// (randomized added delay), and named partitions — so that the
// interworking protocols of chapter 4 can be exercised under the
// failures §6.8 assumes. Every decision is drawn from a PRNG stream
// seeded from (seed, link), and schedule steps fire on the injected
// clock, so a chaos run is exactly reproducible from (seed, schedule):
// the Transcript of two runs with the same inputs is byte-identical.
package fault

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oasis/internal/bus"
	"oasis/internal/clock"
)

// Faults is the per-link fault profile.
type Faults struct {
	// Drop is the probability a notification is lost in transit.
	Drop float64
	// Dup is the probability a notification is delivered twice.
	Dup float64
	// Delay is a fixed delivery delay added to every notification.
	Delay time.Duration
	// Jitter adds a uniform random delay in [0, Jitter); because the
	// bus delivery queue is ordered by due time, jitter reorders.
	Jitter time.Duration
}

func (f Faults) zero() bool {
	return f.Drop == 0 && f.Dup == 0 && f.Delay == 0 && f.Jitter == 0
}

func (f Faults) String() string {
	return fmt.Sprintf("drop=%g dup=%g delay=%s jitter=%s", f.Drop, f.Dup, f.Delay, f.Jitter)
}

// pair is an unordered link key (faults and partitions are symmetric).
type pair struct{ lo, hi string }

func mkPair(a, b string) pair {
	if a > b {
		a, b = b, a
	}
	return pair{a, b}
}

// partition is a named network split: links between the two sides are
// severed until healed.
type partition struct {
	side1, side2 map[string]bool
}

func (pt partition) cuts(from, to string) bool {
	return (pt.side1[from] && pt.side2[to]) || (pt.side2[from] && pt.side1[to])
}

// Plane implements bus.LinkPolicy. Install it with Install (or
// bus.Network.SetLinkPolicy) and drive it either imperatively
// (SetFaults/Sever/Split/Heal) or from a Schedule whose steps fire as
// the injected clock passes their offsets.
//
// The plane's mutex is a leaf: no code path holds it across a channel
// send or a call back into the bus.
type Plane struct {
	clk   clock.Clock
	seed  int64
	start time.Time

	mu         sync.Mutex
	faults     map[pair]Faults
	severed    map[pair]bool
	parts      map[string]partition
	streams    map[string]*rand.Rand // directed "from->to"
	schedule   []Step
	nextStep   int
	transcript []string

	drops atomic.Int64 // policy-decided drops (incl. severed links)
}

// New creates a fault plane over the given clock. The plane's time
// origin (schedule offset zero) is the clock's current time.
func New(clk clock.Clock, seed int64) *Plane {
	return &Plane{
		clk:     clk,
		seed:    seed,
		start:   clk.Now(),
		faults:  make(map[pair]Faults),
		severed: make(map[pair]bool),
		parts:   make(map[string]partition),
		streams: make(map[string]*rand.Rand),
	}
}

// Install makes the plane the network's link policy.
func (p *Plane) Install(n *bus.Network) { n.SetLinkPolicy(p) }

// stream returns the PRNG stream for a directed link, created on first
// use and seeded from (seed, from->to) so that the draw sequence on one
// link is independent of traffic on every other link.
func (p *Plane) stream(from, to string) *rand.Rand {
	key := from + "->" + to
	if r, ok := p.streams[key]; ok {
		return r
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", p.seed, key)
	r := rand.New(rand.NewSource(int64(h.Sum64())))
	p.streams[key] = r
	return r
}

// SetFaults installs the fault profile for the (bidirectional) link.
// The zero Faults clears it.
func (p *Plane) SetFaults(a, b string, f Faults) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.setFaultsLocked(a, b, f)
}

func (p *Plane) setFaultsLocked(a, b string, f Faults) {
	k := mkPair(a, b)
	if f.zero() {
		delete(p.faults, k)
	} else {
		p.faults[k] = f
	}
	p.record("faults %s~%s %s", k.lo, k.hi, f)
}

// Sever cuts the (bidirectional) link: notifications across it drop,
// synchronous calls fail with bus.ErrUnreachable.
func (p *Plane) Sever(a, b string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.severLocked(a, b)
}

func (p *Plane) severLocked(a, b string) {
	k := mkPair(a, b)
	p.severed[k] = true
	p.record("sever %s~%s", k.lo, k.hi)
}

// Restore undoes Sever.
func (p *Plane) Restore(a, b string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.restoreLocked(a, b)
}

func (p *Plane) restoreLocked(a, b string) {
	k := mkPair(a, b)
	delete(p.severed, k)
	p.record("restore %s~%s", k.lo, k.hi)
}

// Split opens a named partition: every link with one end in side1 and
// the other in side2 is severed until Heal(name). Links within a side
// are untouched.
func (p *Plane) Split(name string, side1, side2 []string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.splitLocked(name, side1, side2)
}

func (p *Plane) splitLocked(name string, side1, side2 []string) {
	pt := partition{side1: make(map[string]bool), side2: make(map[string]bool)}
	for _, s := range side1 {
		pt.side1[s] = true
	}
	for _, s := range side2 {
		pt.side2[s] = true
	}
	p.parts[name] = pt
	p.record("split %s %s | %s", name, strings.Join(side1, ","), strings.Join(side2, ","))
}

// Heal closes a named partition.
func (p *Plane) Heal(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.healLocked(name)
}

func (p *Plane) healLocked(name string) {
	delete(p.parts, name)
	p.record("heal %s", name)
}

// blockedLocked is the severed-link query: explicit Sever or any open
// partition cutting the pair.
func (p *Plane) blockedLocked(from, to string) bool {
	if p.severed[mkPair(from, to)] {
		return true
	}
	for _, pt := range p.parts {
		if pt.cuts(from, to) {
			return true
		}
	}
	return false
}

// Blocked implements bus.LinkPolicy: a pure severed-link query,
// consulted on the synchronous call path and again when a delayed
// notification comes due. It consumes no randomness.
func (p *Plane) Blocked(from, to string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.applyDueLocked()
	return p.blockedLocked(from, to)
}

// Notify implements bus.LinkPolicy: the send-time verdict for one
// asynchronous notification. It draws from the link's PRNG stream.
func (p *Plane) Notify(from, to string) bus.Verdict {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.applyDueLocked()
	if p.blockedLocked(from, to) {
		p.drops.Add(1)
		p.record("%s: %s->%s drop (severed)", p.elapsed(), from, to)
		return bus.Verdict{Drop: true, Copies: 1}
	}
	f, ok := p.faults[mkPair(from, to)]
	if !ok {
		return bus.Verdict{Copies: 1}
	}
	rng := p.stream(from, to)
	v := bus.Verdict{Copies: 1}
	if f.Drop > 0 && rng.Float64() < f.Drop {
		p.drops.Add(1)
		p.record("%s: %s->%s drop", p.elapsed(), from, to)
		v.Drop = true
		return v
	}
	if f.Dup > 0 && rng.Float64() < f.Dup {
		p.record("%s: %s->%s dup", p.elapsed(), from, to)
		v.Copies = 2
	}
	v.Delay = f.Delay
	if f.Jitter > 0 {
		v.Delay += time.Duration(rng.Int63n(int64(f.Jitter)))
	}
	if v.Delay > 0 {
		p.record("%s: %s->%s delay %s", p.elapsed(), from, to, v.Delay)
	}
	return v
}

// Drops reports notifications the plane decided to drop (including
// sends into severed links).
func (p *Plane) Drops() int64 { return p.drops.Load() }

// elapsed formats the plane-relative time of a decision.
func (p *Plane) elapsed() time.Duration {
	return p.clk.Now().Sub(p.start)
}

// record appends a transcript line; caller holds p.mu.
func (p *Plane) record(format string, args ...any) {
	p.transcript = append(p.transcript, fmt.Sprintf(format, args...))
}

// Transcript returns the decision/transition log so far, one entry per
// line. Two runs with the same (seed, schedule) and the same driven
// traffic produce byte-identical transcripts — the determinism
// contract the chaos suite asserts.
func (p *Plane) Transcript() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.transcript, "\n")
}

// Step is one scheduled transition.
type Step struct {
	At   time.Duration // offset from the plane's start time
	Kind string        // "faults", "sever", "restore", "split", "heal"

	A, B   string // faults / sever / restore
	Faults Faults // faults

	Name         string   // split / heal
	Side1, Side2 []string // split
}

func (s Step) String() string {
	switch s.Kind {
	case "faults":
		return fmt.Sprintf("at %s faults %s %s %s", s.At, s.A, s.B, s.Faults)
	case "sever", "restore":
		return fmt.Sprintf("at %s %s %s %s", s.At, s.Kind, s.A, s.B)
	case "split":
		return fmt.Sprintf("at %s split %s %s | %s", s.At, s.Name,
			strings.Join(s.Side1, ","), strings.Join(s.Side2, ","))
	case "heal":
		return fmt.Sprintf("at %s heal %s", s.At, s.Name)
	}
	return fmt.Sprintf("at %s ?%s", s.At, s.Kind)
}

// SetSchedule installs the transition schedule. Steps are sorted by
// offset (stable, so same-offset steps keep their order) and fire
// lazily: each policy query first applies every step whose time has
// passed on the clock, so a single-threaded simulation applies them at
// deterministic points.
func (p *Plane) SetSchedule(steps []Step) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.schedule = make([]Step, len(steps))
	copy(p.schedule, steps)
	sort.SliceStable(p.schedule, func(i, j int) bool {
		return p.schedule[i].At < p.schedule[j].At
	})
	p.nextStep = 0
}

// Tick applies any schedule steps whose time has arrived. Simulations
// that want transitions to land even on quiet links call it after each
// clock advance; it is also implied by every Notify/Blocked query.
func (p *Plane) Tick() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.applyDueLocked()
}

func (p *Plane) applyDueLocked() {
	now := p.clk.Now()
	for p.nextStep < len(p.schedule) {
		s := p.schedule[p.nextStep]
		if p.start.Add(s.At).After(now) {
			return
		}
		p.nextStep++
		p.record("t=%s %s", s.At, stepVerb(s))
		switch s.Kind {
		case "faults":
			p.setFaultsLocked(s.A, s.B, s.Faults)
		case "sever":
			p.severLocked(s.A, s.B)
		case "restore":
			p.restoreLocked(s.A, s.B)
		case "split":
			p.splitLocked(s.Name, s.Side1, s.Side2)
		case "heal":
			p.healLocked(s.Name)
		}
	}
}

func stepVerb(s Step) string {
	switch s.Kind {
	case "faults", "sever", "restore":
		return fmt.Sprintf("schedule %s %s~%s", s.Kind, s.A, s.B)
	default:
		return fmt.Sprintf("schedule %s %s", s.Kind, s.Name)
	}
}
