package credrec_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"

	"oasis/internal/credrec"
	"oasis/internal/credrec/storage"
)

// The reference model of credential-record semantics, written from the
// paper (§4.5–4.9) and not from the store: where the store keeps
// counters and propagates, the model keeps each leaf's value and
// evaluates every derived record from its parents. Its rules:
//   - a fact or an external record holds the value it was last given
//     (SetState, Apply, a source transition);
//   - a derived record is AND (False if an input is False, else Unknown
//     if one is Unknown, else True), OR (the dual), or their negations,
//     over its parents' values, each edge negated or not;
//   - a value is final (permanent) once an input that decides it is
//     final, or once every input is; Invalidate and a permanent Apply
//     make a value final by fiat, and nothing changes a final value;
//   - a derived record naming a reference that does not resolve is
//     final False from birth;
//   - Sweep deletes a record that is final and False, or final and
//     idle, and a False fact that is idle. Idle is: no direct-use flag,
//     no notify flag, and no derived record linked beneath it while it
//     was not final. A deleted reference reads final False.

// mRef names a record: id -1 is a reference that never resolved. bit
// is a negated edge to a parent, or an Apply's permanence; s is the
// state a step gives the record.
type mRef struct {
	id  int
	bit bool
	s   credrec.State
}

type mRec struct {
	name    string // an external record's name
	derived bool
	op      credrec.Op
	parents []mRef
	state   credrec.State // a leaf's value, or a final-by-fiat record's
	fiat    bool          // made final by Invalidate or a permanent Apply
	flags   [3]bool       // direct use, notify, auto-revoke
	linked  bool          // a derived record was linked beneath it
	gone    bool          // deleted by a sweep
}

type mVal struct {
	s    credrec.State
	perm bool
}

type model struct{ recs []*mRec }

var not3 = map[credrec.State]credrec.State{credrec.True: credrec.False, credrec.False: credrec.True, credrec.Unknown: credrec.Unknown}

// values evaluates every record. Parents precede their children, so one
// pass in creation order is the recursive evaluation, memoised.
func (m *model) values() []mVal {
	v := make([]mVal, len(m.recs))
	for i, r := range m.recs {
		if r.fiat || !r.derived {
			v[i] = mVal{r.state, r.fiat}
			continue
		}
		decider := credrec.False // the input value that decides AND
		if r.op == credrec.OpOr || r.op == credrec.OpNor {
			decider = credrec.True
		}
		out, unknown, decided, allFinal := not3[decider], false, false, true
		for _, p := range r.parents {
			s := v[p.id].s
			if p.bit {
				s = not3[s]
			}
			if s == decider {
				out, decided = decider, decided || v[p.id].perm
			}
			unknown = unknown || s == credrec.Unknown
			allFinal = allFinal && v[p.id].perm
		}
		if unknown && out != decider {
			out = credrec.Unknown
		}
		if r.op == credrec.OpNand || r.op == credrec.OpNor {
			out = not3[out]
		}
		v[i] = mVal{out, decided || allFinal}
	}
	return v
}

// at returns a live record, or nil for a deleted or unresolvable one.
func (m *model) at(id int) *mRec {
	if id < 0 || m.recs[id].gone {
		return nil
	}
	return m.recs[id]
}

func (m *model) clone() *model {
	c := &model{}
	for _, r := range m.recs {
		cp := *r
		c.recs = append(c.recs, &cp)
	}
	return c
}

// collectible reports whether a sweep now would delete the record.
func (m *model) collectible(id int, v mVal) bool {
	r := m.recs[id]
	idle := !r.flags[0] && !r.flags[1] && (!r.linked || v.perm)
	fact := !r.derived && r.name == ""
	return !r.gone && (v.perm && (v.s == credrec.False || idle) || fact && idle && v.s == credrec.False)
}

// What a mutation returned: nil, ErrDangling, or another refusal.
const (
	done = iota
	dangling
	refused
)

func outcome(err error) int {
	switch {
	case err == nil:
		return done
	case errors.Is(err, credrec.ErrDangling):
		return dangling
	}
	return refused
}

// do takes one step and returns what the store must return.
func (m *model) do(s step) (int, int) {
	var r *mRec
	if len(s.refs) > 0 && s.kind != kDerived && s.kind != kApply {
		if r = m.at(s.refs[0].id); r == nil {
			return dangling, 0
		}
	}
	switch s.kind {
	case kFact, kExternal:
		m.recs = append(m.recs, &mRec{name: s.name, state: s.state})
	case kDerived:
		r = &mRec{derived: true, op: s.op, parents: s.refs}
		for _, p := range s.refs {
			if pr := m.at(p.id); pr != nil {
				pr.linked = true
			} else {
				r.fiat, r.state = true, credrec.False
			}
		}
		m.recs = append(m.recs, r)
	case kSet:
		if r.derived && len(r.parents) > 0 || m.values()[s.refs[0].id].perm {
			return refused, 0
		}
		r.state = s.refs[0].s
	case kInvalidate:
		if !m.values()[s.refs[0].id].perm {
			r.fiat, r.state = true, credrec.False
		}
	case kApply: // aimed at leaves, whose value is their own
		for _, c := range s.refs {
			if r := m.at(c.id); r != nil && !r.fiat && (r.state != c.s || c.bit) {
				r.state, r.fiat = c.s, c.bit
			}
		}
	case kFlag:
		r.flags[s.flag] = true
	case kSource:
		to, n := [...]credrec.State{credrec.Unknown, credrec.False}[s.flag], 0
		for _, r := range m.recs {
			from := r.name
			if cut := strings.LastIndexByte(from, '#'); cut >= 0 {
				from = from[:cut]
			}
			if !r.gone && r.name != "" && !r.fiat && r.state != to && from == s.name {
				r.state, n = to, n+1
			}
		}
		return done, n
	case kSweep:
		v := m.values()
		for i, r := range m.recs {
			r.gone = r.gone || m.collectible(i, v[i])
			r.linked = r.linked && !v[i].perm
		}
	}
	return done, 0
}

// Generated operation sequences.

type kind uint8

const (
	kFact kind = iota
	kExternal
	kDerived
	kSet
	kInvalidate
	kApply
	kFlag
	kSource
	kSweep
	kReopen // journaled compositions close and reopen from what they wrote
	nKinds
)

type step struct {
	kind  kind
	state credrec.State
	name  string // an external record's name, or a source
	op    credrec.Op
	flag  int    // kFlag: direct use, notify, auto-revoke; kSource: unknown, fail-safe
	refs  []mRef // kDerived: the parents; kApply: its records; else the target
}

type input struct {
	beside    int // the composition run once more beside a sweeping goroutine
	snapEvery int // storage.Options.SnapshotEveryOps of the journaled compositions
	steps     []step
}

var (
	states   = [...]credrec.State{credrec.False, credrec.True, credrec.Unknown}
	ops      = [...]credrec.Op{credrec.OpAnd, credrec.OpOr, credrec.OpNand, credrec.OpNor}
	extNames = [...]string{"A", "B", "A#1", "B#2c", "A#ff"}
)

// decode turns any bytes into at most 64 steps over at most 48 records.
// A reference selector's top seven bits choose a record from a pool, or,
// from 120 up, a reference that never resolved; its low bit is a
// negated edge or a permanent change. Apply is aimed at leaves, what an
// authority's word is about: on a derived record it would overwrite a
// value the parents define.
func decode(data []byte) input {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	pick := func(b byte, pool []int) int {
		if s := int(b >> 1); s < 120 && len(pool) > 0 {
			return pool[s%len(pool)]
		}
		return -1
	}
	in := input{beside: int(next()) % len(compositions), snapEvery: [...]int{0, 4, 16, 64}[next()%4]}
	var all, leaves []int
	for len(data) > 0 && len(in.steps) < 64 {
		b := next()
		s := step{kind: kind(b % byte(nKinds))}
		if s.kind == kReopen && b < 128 { // a reopen is one step in twenty
			s.kind = kSweep
		}
		if s.kind <= kDerived && len(all) == 48 {
			continue
		}
		switch s.kind {
		case kFact:
			s.state = states[next()%3]
		case kExternal:
			b := next()
			s.name, s.state = extNames[b%5], states[b/5%3]
		case kDerived:
			b := next()
			s.op = ops[b%4]
			for range b / 4 % 4 {
				p := next()
				s.refs = append(s.refs, mRef{pick(p, all), p&1 == 1, 0})
			}
		case kSet, kInvalidate, kFlag:
			b, f := next(), next()
			s.refs, s.flag = []mRef{{pick(b, all), false, states[f%3]}}, int(f%3)
		case kApply:
			for range 1 + next()%3 {
				b := next()
				s.refs = append(s.refs, mRef{pick(b, leaves), b&1 == 1, states[next()%3]})
			}
		case kSource:
			b := next()
			s.flag, s.name = int(b&1), [...]string{"A", "B", "C"}[b>>1%3]
		}
		if s.kind <= kDerived {
			if s.kind != kDerived {
				leaves = append(leaves, len(all))
			}
			all = append(all, len(all))
		}
		in.steps = append(in.steps, s)
	}
	return in
}

// matrixInput is the sharding matrix's workload through decode, byte for
// byte: sixteen true facts, each ANDed with its neighbour (across
// shards, where there are several), every third fact set false, the
// first set true again, one revoked, a sweep, a restart, and the
// aftermath: one fact comes back, another is revoked for good.
func matrixInput() []byte {
	b := []byte{0, 0}
	for range 16 {
		b = append(b, byte(kFact), 1)
	}
	for i := range 16 {
		b = append(b, byte(kDerived), 2*4, byte(i<<1), byte((i+1)%16<<1))
	}
	for i := 0; i < 16; i += 3 {
		b = append(b, byte(kSet), byte(i<<1), 0)
	}
	b = append(b, byte(kSet), 0, 1, byte(kInvalidate), 5<<1, 0, byte(kSweep), byte(kReopen+13*nKinds)) // a reopen byte is 128 or more
	return append(b, byte(kSet), 3<<1, 1, byte(kInvalidate), 9<<1, 0)
}

// The compositions under test: the plain store and the sharded store,
// in memory, then each of them journaled over storage.Memory, whose
// image must equal its in-memory twin's byte for byte.
type composition struct {
	name      string
	shards    int // 0: one plain Store
	journaled bool
}

var compositions = []composition{
	{"plain", 0, false}, {"shards=1", 1, false}, {"shards=2", 2, false}, {"shards=4", 4, false}, {"shards=8", 8, false},
	{"plain/journaled", 0, true}, {"shards=1/journaled", 1, true}, {"shards=2/journaled", 2, true},
	{"shards=4/journaled", 4, true}, {"shards=8/journaled", 8, true},
}

type live struct {
	composition
	rec      credrec.Recorder
	refs     []credrec.Ref       // by model id
	ids      map[credrec.Ref]int // model id by reference
	opts     storage.Options
	backends []*storage.Memory
	engines  []*storage.Engine
	mu       sync.Mutex
	reports  []credrec.Change // what the observer reported since the last check
}

// open builds the composition, or recovers a journaled one from its
// backends.
func (l *live) open(tb testing.TB) {
	tb.Helper()
	stores, names := make([]*credrec.Store, max(l.shards, 1)), strings.Fields("s0 s1 s2 s3 s4 s5 s6 s7")[:l.shards]
	l.engines = l.engines[:0]
	for i := range stores {
		stores[i] = credrec.NewStore()
		if l.journaled {
			if i == len(l.backends) {
				l.backends = append(l.backends, storage.NewMemory())
			}
			eng, err := storage.Open(l.backends[i], l.opts)
			if err != nil || eng.Vars().Get("torn").String() != "0" {
				tb.Fatalf("%s: recovering shard %d: %v, or a closed store came back torn", l.name, i, err)
			}
			l.engines, stores[i] = append(l.engines, eng), eng.Store()
		}
	}
	var err error
	switch {
	case l.shards == 0:
		l.rec = stores[0]
	case l.journaled:
		l.rec, err = credrec.OpenShardedStore(names, stores)
	default:
		l.rec, err = credrec.NewShardedStore(names, 0)
	}
	if err != nil {
		tb.Fatal(err)
	}
	l.rec.OnChange(func(cs []credrec.Change) {
		l.mu.Lock()
		l.reports = append(l.reports, cs...)
		l.mu.Unlock()
	})
}

func (l *live) close(tb testing.TB) {
	for _, eng := range l.engines {
		if err := eng.Close(); err != nil {
			tb.Fatalf("%s: closing: %v", l.name, err)
		}
	}
}

func (l *live) ref(id int) credrec.Ref {
	if id < 0 {
		return credrec.Ref{Index: 1<<32 - 1} // resolves in no composition
	}
	return l.refs[id]
}

// do takes one step on the composition.
func (l *live) do(s step) (int, int) {
	ref := func(i int) credrec.Ref { return l.ref(s.refs[i].id) }
	made := credrec.Ref{}
	switch s.kind {
	case kFact:
		made = l.rec.NewFact(s.state)
	case kExternal:
		made = l.rec.NewExternal(s.name, s.state)
	case kDerived:
		ps := make([]credrec.Parent, len(s.refs))
		for i, p := range s.refs {
			ps[i] = credrec.Parent{Ref: ref(i), Negated: p.bit}
		}
		made = l.rec.NewDerived(s.op, ps...)
	case kSet:
		return outcome(l.rec.SetState(ref(0), s.refs[0].s)), 0
	case kInvalidate:
		return outcome(l.rec.Invalidate(ref(0))), 0
	case kApply:
		cs := make([]credrec.Change, len(s.refs))
		for i, c := range s.refs {
			cs[i] = credrec.Change{Ref: ref(i), State: c.s, Permanent: c.bit}
		}
		return outcome(l.rec.Apply(cs)), 0
	case kFlag:
		return outcome([...]func(credrec.Ref) error{l.rec.MarkDirectUse, l.rec.MarkNotify, l.rec.MarkAutoRevoke}[s.flag](ref(0))), 0
	case kSource:
		return done, [...]func(string) int{l.rec.MarkSourceUnknown, l.rec.MarkSourceFailsafe}[s.flag](s.name)
	case kSweep:
		l.rec.Sweep()
	}
	if s.kind <= kDerived {
		l.ids[made] = len(l.refs)
		l.refs = append(l.refs, made)
	}
	return done, 0
}

// resolve reads a record, or reports it deleted.
func (l *live) resolve(id int) (mVal, bool) {
	if id < 0 || id >= len(l.refs) {
		return mVal{}, false
	}
	s, perm, err := l.rec.Resolve(l.refs[id])
	return mVal{s, perm}, errors.Is(err, credrec.ErrDangling)
}

// check compares Resolve, Lookup and Valid of every record the sequence
// made, Externals, and what the observer reported with the model. maybe
// names the records a concurrent sweep may have deleted unseen: each
// reads its model value or deleted, and deleted is for good.
func (l *live) check(tb testing.TB, m *model, before, after []mVal, maybe map[int]bool, at func() string) {
	tb.Helper()
	fail := func(format string, args ...any) {
		tb.Helper()
		tb.Fatalf("%s: %s: %s", l.name, at(), fmt.Sprintf(format, args...))
	}
	for id, ref := range l.refs {
		r := m.recs[id]
		want := func(deleted bool) mVal {
			r.gone = r.gone || deleted && maybe[id]
			if r.gone {
				return mVal{credrec.False, true}
			}
			return after[id]
		}
		s, perm, err := l.rec.Resolve(ref)
		rerr := errors.Is(err, credrec.ErrDangling)
		if w := want(rerr); (mVal{s, perm}) != w || rerr != r.gone || err != nil && !rerr {
			fail("record %d (%v): Resolve %v %t %v; model %+v deleted %t", id, ref, s, perm, err, w, r.gone)
		}
		s, err = l.rec.Lookup(ref)
		lerr := errors.Is(err, credrec.ErrDangling)
		if w := want(lerr); s != w.s || lerr != r.gone || err != nil && !lerr {
			fail("record %d (%v): Lookup %v %v; model %+v deleted %t", id, ref, s, err, w, r.gone)
		}
		valid := l.rec.Valid(ref)
		if w := want(!valid && after[id].s == credrec.True); valid != (w.s == credrec.True) {
			fail("record %d (%v): Valid %t; model %+v deleted %t", id, ref, valid, w, r.gone)
		}
	}
	type ext struct {
		name  string
		final bool
	}
	got := make(map[int]ext)
	l.rec.Externals(func(ref credrec.Ref, name string, final bool) {
		id, ok := l.ids[ref]
		if _, twice := got[id]; !ok || twice {
			fail("Externals visits %v %q, which no step made, or twice", ref, name)
		}
		got[id] = ext{name, final}
	})
	for id, r := range m.recs {
		g, ok := got[id]
		r.gone = r.gone || !ok && maybe[id] && r.name != ""
		if want := (ext{r.name, after[id].perm}); ok != (r.name != "" && !r.gone) || ok && g != want {
			fail("Externals visits record %d as %+v (%t); model %+v deleted %t", id, g, ok, want, r.gone)
		}
	}
	l.mu.Lock()
	reports := l.reports
	l.reports = nil
	l.mu.Unlock()
	last := make(map[int]mVal)
	for _, c := range reports {
		id, ok := l.ids[c.Ref]
		if !ok || !m.recs[id].flags[1] {
			fail("the observer reports %+v, a record not Notify-flagged in the model", c)
		}
		last[id] = mVal{c.State, c.Permanent}
	}
	for id, r := range m.recs {
		v, ok := last[id]
		if ok && v != after[id] || !ok && r.flags[1] && id < len(before) && before[id] != after[id] {
			fail("the observer's last report of record %d is %+v (%t); model %+v -> %+v", id, v, ok, before[id], after[id])
		}
	}
}

// run drives the compositions through the input in lockstep with one
// model, comparing after every step; a journaled composition's image
// must equal its in-memory twin's around every reopen, and once more,
// reopened, at the end. Beside a sweep, one composition runs while a
// second goroutine sweeps it, as a daemon's duty loop does, and the one
// timing-dependent outcome accepted is the one the model names: a
// record a sweep may delete reads its model value or deleted.
func run(tb testing.TB, in input, cs []composition, beside bool) {
	tb.Helper()
	m, ls, twins := &model{}, make([]*live, len(cs)), map[*live]*live{}
	for i, c := range cs {
		ls[i] = &live{composition: c, ids: make(map[credrec.Ref]int), opts: storage.Options{SnapshotEveryOps: in.snapEvery}}
		ls[i].open(tb)
		defer func(l *live) { l.close(tb) }(ls[i])
		for _, t := range ls[:i] {
			if c.journaled && !t.journaled && t.shards == c.shards {
				twins[ls[i]] = t
			}
		}
	}
	var quit, swept chan struct{}
	sweep := func(on bool) { // sweeps without pause while on
		if swept != nil {
			close(quit)
			<-swept
		}
		if swept = nil; on {
			quit, swept = make(chan struct{}), make(chan struct{})
			go func(rec credrec.Recorder, quit, swept chan struct{}) {
				defer close(swept)
				for {
					select {
					case <-quit:
						return
					default:
						rec.Sweep()
					}
				}
			}(ls[0].rec, quit, swept)
		}
	}
	sweep(beside)
	defer sweep(false)
	reopen := func(at string) {
		tb.Helper()
		sweep(false)
		for _, l := range ls {
			for _, when := range []string{"before closing", "reopened"} {
				if twin := twins[l]; twin != nil && !bytes.Equal(l.rec.Image(), twin.rec.Image()) {
					tb.Fatalf("%s: %s, %s: image differs from %s's:\n%s-- %s --\n%s", l.name, at, when, twin.name, l.rec.Image(), twin.name, twin.rec.Image())
				}
				if l.journaled && when == "before closing" {
					l.close(tb)
					l.open(tb)
				}
			}
		}
		sweep(beside)
	}
	maybe := map[int]bool{} // what a sweep may have deleted since the model last knew
	for i, s := range in.steps {
		at := func() string { return fmt.Sprintf("step %d %+v (beside a sweep: %t)", i, s, beside) }
		if s.kind == kReopen {
			reopen(at())
		}
		before, next := m.values(), m.clone()
		wantOut, wantN := next.do(s)
		for _, l := range ls {
			gotOut, gotN := l.do(s)
			// A record the step names that a sweep may have deleted, and
			// that reads deleted now, went either before the step (the
			// model takes the step without it) or after (with it). The
			// step's result, or the value of the record it made, tells
			// which; Apply touches only what it names, so either serves.
			var taken []int
			for _, e := range s.refs {
				if _, deleted := l.resolve(e.id); maybe[e.id] && deleted {
					taken = append(taken, e.id)
				}
			}
			if v, _ := l.resolve(len(l.refs) - 1); len(taken) > 0 && (s.kind == kApply || gotOut != wantOut || gotN != wantN ||
				s.kind == kDerived && v != next.values()[len(next.recs)-1]) {
				for _, id := range taken {
					m.recs[id].gone = true
				}
				next = m
				wantOut, wantN = m.do(s)
			}
			for _, id := range taken {
				next.recs[id].gone = true
			}
			if gotOut != wantOut || gotN != wantN {
				tb.Fatalf("%s: %s: returned %d/%d; model %d/%d", l.name, at(), gotOut, gotN, wantOut, wantN)
			}
			after := next.values()
			for id, v := range after {
				maybe[id] = beside && next.collectible(id, v)
			}
			l.check(tb, next, before, after, maybe, at)
		}
		m = next
	}
	reopen("at the end")
}

// FuzzRecorderModel drives generated operation sequences through every
// Recorder composition in lockstep with the reference model, and
// through one composition, chosen by the input, once more beside a
// sweeping goroutine. Under plain `go test` it also runs the two-parent
// truth table (3 × 3 states, 4 operations, 2 × 2 negations) on every
// composition, and 900 sequences generated from a fixed seed on the
// plain store; the corpus (200 of those, the sharding matrix's
// workload, testdata/fuzz) runs on all ten.
func FuzzRecorderModel(f *testing.F) {
	for c := range 144 {
		a, b, op, negs := byte(c%3), byte(c/3%3), byte(c/9%4), byte(c/36)
		run(f, decode([]byte{0, 0, byte(kFact), a, byte(kFact), b, byte(kDerived), op + 2*4, negs & 1, 2 | negs>>1}), compositions, false)
	}
	for i, b := range generated(900) {
		if i < 200 {
			f.Add(b)
		} else {
			run(f, decode(b), compositions[:1], false)
		}
	}
	f.Add(matrixInput())
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decode(data)
		run(t, in, compositions, false)
		run(t, in, compositions[in.beside:in.beside+1], true)
	})
}

// generated returns n operation sequences drawn from a fixed seed.
func generated(n int) [][]byte {
	rng, out := rand.New(rand.NewPCG(42, 1996)), make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, 16+rng.IntN(112))
		for j := range out[i] {
			out[i][j] = byte(rng.Uint32())
		}
	}
	return out
}

// TestRecorderModelBesideSweep runs the first generated sequences on
// every composition beside a sweeping goroutine: the leg the race
// detector runs over and over.
func TestRecorderModelBesideSweep(t *testing.T) {
	for _, b := range generated(10) {
		for i := range compositions {
			run(t, decode(b), compositions[i:i+1], true)
		}
	}
}
