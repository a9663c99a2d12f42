package credrec

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestFactLifecycle(t *testing.T) {
	st := NewStore()
	r := st.NewFact(True)
	if !st.Valid(r) {
		t.Fatal("fresh true fact not valid")
	}
	if err := st.SetState(r, False); err != nil {
		t.Fatal(err)
	}
	if st.Valid(r) {
		t.Fatal("false fact reported valid")
	}
	s, err := st.Lookup(r)
	if err != nil || s != False {
		t.Fatalf("Lookup = %v, %v", s, err)
	}
}

func TestRefUint64RoundTrip(t *testing.T) {
	r := Ref{Index: 0xDEADBEEF, Magic: 0x12345678}
	if got := RefFromUint64(r.Uint64()); got != r {
		t.Fatalf("round trip %v -> %v", r, got)
	}
}

func TestDanglingReference(t *testing.T) {
	st := NewStore()
	r := st.NewFact(True)
	bogus := Ref{Index: r.Index, Magic: r.Magic + 1}
	if _, err := st.Lookup(bogus); !errors.Is(err, ErrDangling) {
		t.Fatalf("stale magic: %v", err)
	}
	if _, err := st.Lookup(Ref{Index: 999, Magic: 1}); !errors.Is(err, ErrDangling) {
		t.Fatalf("out of range: %v", err)
	}
	if st.Valid(bogus) {
		t.Fatal("dangling reference valid")
	}
}

func TestAndGraphPropagation(t *testing.T) {
	// Figure 4.6: a single AND record confirms three membership rules.
	st := NewStore()
	login := st.NewFact(True)
	deleg := st.NewFact(True)
	group := st.NewFact(True)
	member := st.NewDerived(OpAnd, Of(login), Of(deleg), Of(group))
	if !st.Valid(member) {
		t.Fatal("conjunction of true facts not valid")
	}
	// Removing the user from the group revokes the membership (§3.2.3).
	if err := st.SetState(group, False); err != nil {
		t.Fatal(err)
	}
	if st.Valid(member) {
		t.Fatal("membership survived group removal")
	}
	// Re-adding restores it (non-permanent condition).
	if err := st.SetState(group, True); err != nil {
		t.Fatal(err)
	}
	if !st.Valid(member) {
		t.Fatal("membership did not recover")
	}
}

func TestOrNorNand(t *testing.T) {
	st := NewStore()
	a := st.NewFact(True)
	b := st.NewFact(False)

	or := st.NewDerived(OpOr, Of(a), Of(b))
	nor := st.NewDerived(OpNor, Of(a), Of(b))
	nand := st.NewDerived(OpNand, Of(a), Of(b))
	and := st.NewDerived(OpAnd, Of(a), Of(b))

	check := func(ref Ref, want State) {
		t.Helper()
		got, err := st.Lookup(ref)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("state = %v, want %v", got, want)
		}
	}
	check(or, True)
	check(nor, False)
	check(nand, True)
	check(and, False)

	if err := st.SetState(b, True); err != nil {
		t.Fatal(err)
	}
	check(or, True)
	check(nor, False)
	check(nand, False)
	check(and, True)
}

func TestNegatedEdge(t *testing.T) {
	// §3.3.2: membership requires NOT Revoked(...).
	st := NewStore()
	person := st.NewFact(True)
	revoked := st.NewFact(False)
	member := st.NewDerived(OpAnd, Of(person), Not(revoked))
	if !st.Valid(member) {
		t.Fatal("member invalid before revocation")
	}
	if err := st.SetState(revoked, True); err != nil {
		t.Fatal(err)
	}
	if st.Valid(member) {
		t.Fatal("member valid after revocation")
	}
}

func TestUnknownPropagation(t *testing.T) {
	st := NewStore()
	a := st.NewFact(True)
	b := st.NewFact(True)
	and := st.NewDerived(OpAnd, Of(a), Of(b))
	if err := st.SetState(a, Unknown); err != nil {
		t.Fatal(err)
	}
	s, _ := st.Lookup(and)
	if s != Unknown {
		t.Fatalf("AND of unknown = %v, want unknown", s)
	}
	if st.Valid(and) {
		t.Fatal("unknown record treated as valid; servers must act as if revoked")
	}
	// OR with a true parent stays true despite an unknown one.
	c := st.NewFact(Unknown)
	or := st.NewDerived(OpOr, Of(b), Of(c))
	if !st.Valid(or) {
		t.Fatal("OR with a true parent should remain true")
	}
}

func TestDeepCascade(t *testing.T) {
	// Recursive delegation (figure 4.5): revoking the root invalidates
	// the whole subtree in one propagation.
	st := NewStore()
	root := st.NewFact(True)
	cur := root
	var chain []Ref
	for i := 0; i < 100; i++ {
		cur = st.NewDerived(OpAnd, Of(cur))
		chain = append(chain, cur)
	}
	if !st.Valid(chain[99]) {
		t.Fatal("leaf of delegation chain invalid")
	}
	if err := st.Invalidate(root); err != nil {
		t.Fatal(err)
	}
	for i, r := range chain {
		if st.Valid(r) {
			t.Fatalf("chain[%d] still valid after root revocation", i)
		}
	}
}

func TestSelectiveRevocation(t *testing.T) {
	// Figure 4.5: client 1 revokes client 2's capability; a sibling
	// delegation from the same root is unaffected.
	st := NewStore()
	root := st.NewFact(True)
	d2 := st.NewDerived(OpAnd, Of(root)) // delegation to client 2
	d3 := st.NewDerived(OpAnd, Of(d2))   // client 2 delegates to client 3
	sib := st.NewDerived(OpAnd, Of(root))
	if err := st.Invalidate(d2); err != nil {
		t.Fatal(err)
	}
	if st.Valid(d2) || st.Valid(d3) {
		t.Fatal("revoked subtree still valid")
	}
	if !st.Valid(sib) {
		t.Fatal("sibling delegation caught in selective revocation")
	}
	if !st.Valid(root) {
		t.Fatal("root invalidated by child revocation")
	}
}

func TestInvalidateIsPermanent(t *testing.T) {
	st := NewStore()
	f := st.NewFact(True)
	if err := st.Invalidate(f); err != nil {
		t.Fatal(err)
	}
	if err := st.SetState(f, True); err == nil {
		t.Fatal("permanent record allowed state change")
	}
}

func TestSetStateOnDerivedFails(t *testing.T) {
	st := NewStore()
	a := st.NewFact(True)
	d := st.NewDerived(OpAnd, Of(a))
	if err := st.SetState(d, False); err == nil {
		t.Fatal("derived record accepted direct SetState")
	}
}

func TestPermanencePropagates(t *testing.T) {
	st := NewStore()
	a := st.NewFact(True)
	b := st.NewFact(True)
	and := st.NewDerived(OpAnd, Of(a), Of(b))
	if err := st.Invalidate(a); err != nil {
		t.Fatal(err)
	}
	// AND with a permanently false parent is permanently false: a later
	// change of b must not resurrect it.
	if err := st.SetState(b, False); err != nil {
		t.Fatal(err)
	}
	if err := st.SetState(b, True); err != nil {
		t.Fatal(err)
	}
	if st.Valid(and) {
		t.Fatal("permanently false AND resurrected")
	}
	s, err := st.Lookup(and)
	if err == nil && s != False {
		t.Fatalf("state = %v", s)
	}
}

func TestDerivedFromDanglingIsPermanentlyFalse(t *testing.T) {
	st := NewStore()
	a := st.NewFact(True)
	bogus := Ref{Index: a.Index, Magic: a.Magic + 7}
	d := st.NewDerived(OpAnd, Of(a), Of(bogus))
	if st.Valid(d) {
		t.Fatal("record derived from dangling parent valid")
	}
}

func TestNotifyHook(t *testing.T) {
	st := NewStore()
	a := st.NewFact(True)
	d := st.NewDerived(OpAnd, Of(a))
	if err := st.MarkNotify(d); err != nil {
		t.Fatal(err)
	}
	var got []State
	st.OnChange(func(ref Ref, s State, perm bool) {
		if ref == d {
			got = append(got, s)
		}
	})
	if err := st.SetState(a, False); err != nil {
		t.Fatal(err)
	}
	if err := st.SetState(a, True); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != False || got[1] != True {
		t.Fatalf("notifications = %v", got)
	}
}

func TestNotifyNotFiredForUnflagged(t *testing.T) {
	st := NewStore()
	a := st.NewFact(True)
	d := st.NewDerived(OpAnd, Of(a))
	fired := false
	st.OnChange(func(ref Ref, s State, perm bool) { fired = true })
	if err := st.SetState(a, False); err != nil {
		t.Fatal(err)
	}
	_ = d
	if fired {
		t.Fatal("change notification fired for unflagged record")
	}
}

func TestExternalRecords(t *testing.T) {
	st := NewStore()
	e1 := st.NewExternal("login", True)
	e2 := st.NewExternal("login", True)
	local := st.NewFact(True)
	d := st.NewDerived(OpAnd, Of(e1), Of(e2), Of(local))
	if !st.Valid(d) {
		t.Fatal("derived over externals invalid")
	}
	if st.External(e1) != "login" || st.External(local) != "" {
		t.Fatal("External source wrong")
	}
	// Missed heartbeat: all records from that source become unknown.
	if n := st.MarkSourceUnknown("login"); n != 2 {
		t.Fatalf("marked %d records unknown, want 2", n)
	}
	if st.Valid(d) {
		t.Fatal("derived record valid while parents unknown")
	}
	refs := externalsNamed(st, "login")
	if len(refs) != 2 {
		t.Fatalf("Externals = %v", refs)
	}
	// Reconnection: states re-read and restored.
	for _, r := range refs {
		if err := st.SetState(r, True); err != nil {
			t.Fatal(err)
		}
	}
	if !st.Valid(d) {
		t.Fatal("derived record did not recover after reconnection")
	}
}

// A surrogate named for what it mirrors is from the source before its
// last '#'; one named before surrogates were, from its whole name.
func TestSourceTransitionsMatchNamedSurrogates(t *testing.T) {
	st := NewStore()
	named := st.NewExternal(SurrogateName("Login", Ref{Index: 7, Magic: 2}), True)
	legacy := st.NewExternal("Login", True)
	other := st.NewExternal(SurrogateName("Login#x", Ref{Index: 7, Magic: 2}), True)
	bridge := st.NewExternal(bridgeName("Login", Ref{Index: 7, Magic: 2}), True)
	if n := st.MarkSourceUnknown("Login"); n != 2 {
		t.Fatalf("MarkSourceUnknown touched %d records, want 2", n)
	}
	for ref, want := range map[Ref]State{named: Unknown, legacy: Unknown, other: True, bridge: True} {
		if got, _ := st.Lookup(ref); got != want {
			t.Errorf("%s = %v, want %v", st.External(ref), got, want)
		}
	}
	if source, remote, err := ParseSurrogateName(st.External(named)); err != nil || source != "Login" || remote != (Ref{Index: 7, Magic: 2}) {
		t.Fatalf("ParseSurrogateName(%q) = %q, %v, %v", st.External(named), source, remote, err)
	}
	if _, _, err := ParseSurrogateName("Login"); err == nil {
		t.Fatal("a name without a reference parsed")
	}
}

func TestSweepDeletesPermanentlyFalse(t *testing.T) {
	st := NewStore()
	a := st.NewFact(True)
	d := st.NewDerived(OpAnd, Of(a))
	if err := st.MarkDirectUse(d); err != nil {
		t.Fatal(err)
	}
	if err := st.Invalidate(a); err != nil {
		t.Fatal(err)
	}
	deleted := st.Sweep()
	if deleted == 0 {
		t.Fatal("sweep deleted nothing")
	}
	// The deleted records' references now dangle: certificates embedding
	// them validate as revoked.
	if st.Valid(d) {
		t.Fatal("swept record still valid")
	}
	if _, err := st.Lookup(d); !errors.Is(err, ErrDangling) {
		t.Fatalf("Lookup after sweep = %v", err)
	}
}

func TestSweepKeepsInterestingRecords(t *testing.T) {
	st := NewStore()
	used := st.NewFact(True)
	if err := st.MarkDirectUse(used); err != nil {
		t.Fatal(err)
	}
	parent := st.NewFact(True)
	child := st.NewDerived(OpAnd, Of(parent))
	if err := st.MarkDirectUse(child); err != nil {
		t.Fatal(err)
	}
	st.Sweep()
	if !st.Valid(used) || !st.Valid(child) || !st.Valid(parent) {
		t.Fatal("sweep deleted live, interesting records")
	}
}

func TestSlotReuseBumpsMagic(t *testing.T) {
	st := NewStore()
	a := st.NewFact(True)
	if err := st.Invalidate(a); err != nil {
		t.Fatal(err)
	}
	st.Sweep()
	b := st.NewFact(True)
	if b.Index != a.Index {
		t.Skip("allocator did not reuse slot") // not required, but expected
	}
	if b.Magic == a.Magic {
		t.Fatal("reused slot kept old magic; stale refs would resolve")
	}
	if _, err := st.Lookup(a); !errors.Is(err, ErrDangling) {
		t.Fatal("stale ref resolved after reuse")
	}
	if !st.Valid(b) {
		t.Fatal("new record in reused slot invalid")
	}
}

func TestFlags(t *testing.T) {
	st := NewStore()
	a := st.NewFact(True)
	if st.AutoRevoke(a) {
		t.Fatal("fresh record has auto-revoke")
	}
	if err := st.MarkAutoRevoke(a); err != nil {
		t.Fatal(err)
	}
	if !st.AutoRevoke(a) {
		t.Fatal("auto-revoke flag not set")
	}
	bogus := Ref{Index: 99, Magic: 1}
	if err := st.MarkDirectUse(bogus); !errors.Is(err, ErrDangling) {
		t.Fatal("flag set on dangling ref")
	}
}

func TestMakePermanentFreezesTrue(t *testing.T) {
	st := NewStore()
	a := st.NewFact(True)
	if err := st.MakePermanent(a); err != nil {
		t.Fatal(err)
	}
	if err := st.SetState(a, False); err == nil {
		t.Fatal("permanent-true record changed")
	}
	if !st.Valid(a) {
		t.Fatal("permanent-true record invalid")
	}
}

func TestStats(t *testing.T) {
	st := NewStore()
	a := st.NewFact(True)
	if err := st.Invalidate(a); err != nil {
		t.Fatal(err)
	}
	st.Sweep()
	created, deleted := st.Stats()
	if created != 1 || deleted != 1 {
		t.Fatalf("stats = %d created, %d deleted", created, deleted)
	}
	if st.Live() != 0 {
		t.Fatalf("Live = %d", st.Live())
	}
}

// Property: for random two-input graphs, the derived state always equals
// the boolean op applied to parent states (three-valued logic).
func TestQuickDerivedMatchesTruthTable(t *testing.T) {
	states := []State{False, True, Unknown}
	ops := []Op{OpAnd, OpOr, OpNand, OpNor}
	f := func(ai, bi, oi uint8, negA, negB bool) bool {
		sa := states[int(ai)%3]
		sb := states[int(bi)%3]
		op := ops[int(oi)%4]
		st := NewStore()
		a := st.NewFact(sa)
		b := st.NewFact(sb)
		d := st.NewDerived(op, Parent{Ref: a, Negated: negA}, Parent{Ref: b, Negated: negB})
		got, err := st.Lookup(d)
		if err != nil {
			return false
		}
		return got == truth(op, effective(sa, negA), effective(sb, negB))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// truth is an independent three-valued evaluation used as the oracle.
func truth(op Op, a, b State) State {
	and := func(x, y State) State {
		if x == False || y == False {
			return False
		}
		if x == Unknown || y == Unknown {
			return Unknown
		}
		return True
	}
	or := func(x, y State) State {
		if x == True || y == True {
			return True
		}
		if x == Unknown || y == Unknown {
			return Unknown
		}
		return False
	}
	neg := func(x State) State {
		switch x {
		case True:
			return False
		case False:
			return True
		default:
			return Unknown
		}
	}
	switch op {
	case OpAnd:
		return and(a, b)
	case OpOr:
		return or(a, b)
	case OpNand:
		return neg(and(a, b))
	case OpNor:
		return neg(or(a, b))
	}
	return Unknown
}

// Property: after an arbitrary sequence of SetState operations on the
// leaves, the derived record equals the oracle applied to current leaf
// states (propagation via counters never drifts).
func TestQuickPropagationConsistency(t *testing.T) {
	f := func(flips []bool) bool {
		st := NewStore()
		a := st.NewFact(True)
		b := st.NewFact(True)
		d := st.NewDerived(OpAnd, Of(a), Not(b))
		sa, sb := True, True
		for i, fl := range flips {
			var target *State
			var ref Ref
			if i%2 == 0 {
				target, ref = &sa, a
			} else {
				target, ref = &sb, b
			}
			ns := True
			if fl {
				ns = False
			}
			if err := st.SetState(ref, ns); err != nil {
				return false
			}
			*target = ns
			got, err := st.Lookup(d)
			if err != nil {
				return false
			}
			if got != truth(OpAnd, sa, effective(sb, true)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStateAndOpStrings(t *testing.T) {
	if True.String() != "true" || False.String() != "false" || Unknown.String() != "unknown" {
		t.Fatal("State.String wrong")
	}
	if OpAnd.String() != "and" || OpNor.String() != "nor" {
		t.Fatal("Op.String wrong")
	}
	if State(0).String() == "" || Op(0).String() == "" {
		t.Fatal("zero values render empty")
	}
	if (Ref{Index: 1, Magic: 2}).String() != "crr:1.2" {
		t.Fatal("Ref.String wrong")
	}
}
