package rdl

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"oasis/internal/value"
)

// refUnderTest pairs a compiled role reference with the AST and the
// signature it was compiled from — what MatchArgs/InstantiateArgs need
// to play the same reference.
type refUnderTest struct {
	name  string
	plan  *RefPlan
	ast   *RoleRef
	types []value.Type
}

// refsOf lists every reference of a rule: head, candidates, elector.
func refsOf(cr *CompiledRule, sig RuleSig) []refUnderTest {
	refs := []refUnderTest{{"head", &cr.Head, &cr.Rule.Head, sig.Head}}
	for ci := range cr.Cands {
		refs = append(refs, refUnderTest{fmt.Sprintf("cand %d", ci), &cr.Cands[ci], &cr.Rule.Candidates[ci], sig.Candidates[ci]})
	}
	if cr.Elector != nil {
		refs = append(refs, refUnderTest{"elector", cr.Elector, cr.Rule.Elector, sig.Elector})
	}
	return refs
}

// refTypePalette is what the fuzzer draws reference signatures from:
// one type of every kind, so any literal meets both a type it coerces
// to and types it does not.
var refTypePalette = []value.Type{
	value.IntType, value.StringType, value.SetType("rwx"), value.ObjectType("Fz.id"),
}

// refValue draws a value for an argument position: usually one of a
// handful of values of the slot's own type (few enough that repeated
// variables sometimes agree and sometimes conflict), sometimes a value
// of an arbitrary type.
func refValue(rnd *rand.Rand, t value.Type) value.Value {
	if rnd.Intn(4) == 0 {
		return fuzzValue(rnd.Uint64(), "v")
	}
	switch t.Kind {
	case value.KindInt:
		return value.Int(int64(rnd.Intn(3)))
	case value.KindString:
		return value.Str([]string{"a", "b"}[rnd.Intn(2)])
	case value.KindSet:
		v, _ := value.Set(t.Universe, t.Universe[:rnd.Intn(len(t.Universe)+1)])
		return v
	case value.KindObject:
		return value.Object(t.Name, []string{"a", "b"}[rnd.Intn(2)])
	default:
		return value.Value{}
	}
}

// refVector draws the concrete values one attempt presents to a
// reference. A friendly vector is built to fit — literals meet their
// own coerced value, bound variables the value they hold — so that a
// hostile attempt followed by a friendly one exercises rollback; even a
// friendly vector cannot fit an uncoercible literal. Hostile vectors
// are drawn blind and are occasionally of the wrong arity.
func refVector(rnd *rand.Rand, r refUnderTest, env value.Env, friendly bool) []value.Value {
	n := len(r.ast.Args)
	if !friendly && rnd.Intn(8) == 0 {
		n += rnd.Intn(3) - 1
		if n < 0 {
			n = 0
		}
	}
	vals := make([]value.Value, n)
	for i := range vals {
		t := value.StringType
		if i < len(r.types) {
			t = r.types[i]
		}
		vals[i] = refValue(rnd, t)
		fit := friendly || rnd.Intn(2) == 0
		if !fit || i >= len(r.ast.Args) {
			continue
		}
		a := r.ast.Args[i]
		if bound, ok := env[a.Var]; ok {
			vals[i] = bound
		} else if lit, err := LiteralValue(a, t); a.Var == "" && err == nil {
			vals[i] = lit
		}
	}
	return vals
}

// diffRefPlans plays one rule's references through the compiled plan
// and through the reference semantics side by side: a pre-seeded
// environment, then for every reference a hostile, a friendly and
// another hostile value vector, then instantiation of every reference.
// After each step the verdicts and the complete set of bindings must
// agree — a failed attempt must leave no trace on either side.
func diffRefPlans(t *testing.T, p *Program, ri int, sig RuleSig, rnd *rand.Rand) {
	t.Helper()
	cr := &p.Rules[ri]
	env := value.Env{}
	for _, name := range cr.Regs {
		if rnd.Intn(3) == 0 {
			env[name] = fuzzValue(rnd.Uint64(), name)
		}
	}
	m := p.NewMachine()
	m.Reset(ri)
	m.SeedEnv(env.Clone())

	refs := refsOf(cr, sig)
	for _, r := range refs {
		for attempt := 0; attempt < 3; attempt++ {
			vals := refVector(rnd, r, env, attempt == 1)
			next, ok, err := MatchArgs(r.ast.Args, r.types, vals, env)
			want := err == nil && ok
			if got := m.MatchPlan(r.plan, vals); got != want {
				t.Fatalf("rule %d %s %s against %v under %v: compiled=%v reference=%v (err %v)",
					ri+1, r.name, r.ast, vals, env, got, want, err)
			}
			if want {
				env = next
			}
			if got := m.ResultEnv(); !reflect.DeepEqual(map[string]value.Value(got), map[string]value.Value(env)) {
				t.Fatalf("rule %d %s %s against %v (matched=%v): bindings diverge:\ncompiled=%v\nreference=%v",
					ri+1, r.name, r.ast, vals, want, got, env)
			}
		}
	}
	for _, r := range refs {
		want, err := InstantiateArgs(r.ast.Args, r.types, env)
		got, ok := m.Instantiate(r.plan)
		if ok != (err == nil) {
			t.Fatalf("rule %d %s %s under %v: instantiate compiled ok=%v reference err=%v",
				ri+1, r.name, r.ast, env, ok, err)
		}
		if ok && value.MarshalArgs(got) != value.MarshalArgs(want) {
			t.Fatalf("rule %d %s %s under %v: instantiate compiled=%v reference=%v",
				ri+1, r.name, r.ast, env, got, want)
		}
	}
}

// siblingTypes resolves a foreign role's signature the way a deployed
// service's gettypes would: from the rolefile of the issuing service,
// which the examples keep next to the one that refers to it. A service
// with no rolefile there leaves the signature to inference.
func siblingTypes(dir string) RoleTypesFunc {
	return func(service, rolefile, role string) ([]value.Type, error) {
		src, err := os.ReadFile(filepath.Join(dir, service+".rdl"))
		if err != nil {
			return nil, ErrInferSignature
		}
		f, err := Parse(string(src))
		if err != nil {
			return nil, err
		}
		rf, err := Check(f, inferAll, nil)
		if err != nil {
			return nil, err
		}
		return rf.Types[role], nil
	}
}

// TestRefPlanExamples runs the reference-plan differential over every
// head, candidate and elector reference of every example rolefile,
// under the signatures the checker resolved for them.
func TestRefPlanExamples(t *testing.T) {
	for _, path := range exampleFiles(t) {
		t.Run(filepath.Base(filepath.Dir(path))+"/"+filepath.Base(path), func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}
			rf, err := Check(f, siblingTypes(filepath.Dir(path)), nil)
			if err != nil {
				t.Fatal(err)
			}
			sigs := make([]RuleSig, len(f.Rules))
			for i, rule := range f.Rules {
				sigs[i] = new(compiler).deriveSig(rf, rule)
			}
			p, err := Compile(rf, sigs)
			if err != nil {
				t.Fatal(err)
			}
			for ri := range p.Rules {
				for _, r := range refsOf(&p.Rules[ri], sigs[ri]) {
					if len(r.types) != len(r.ast.Args) {
						t.Fatalf("rule %d %s %s: signature %v not resolved", ri+1, r.name, r.ast, r.types)
					}
				}
				for seed := int64(0); seed < 200; seed++ {
					diffRefPlans(t, p, ri, sigs[ri], rand.New(rand.NewSource(seed)))
				}
			}
		})
	}
}

// FuzzRefPlan is the differential fuzzer of argument unification: for
// any rule the parser accepts, under fuzzer-chosen reference
// signatures, pre-seeded environments and value vectors, MatchPlan and
// Instantiate on the register machine must agree with MatchArgs and
// InstantiateArgs on environments — verdict, bindings after every
// attempt (so a failed attempt rolled back completely), and the
// instantiated arguments. Signatures are drawn independently of the
// literals, so an uncoercible literal — an unresolvable slot in the
// plan, a per-use coercion error in the reference — is common.
func FuzzRefPlan(f *testing.F) {
	for _, src := range []string{
		// repeated variables within and across references
		"R(x, x) <- C(x, y) & D(y, x)",
		"R(x, y) <- C(x, x)* <| E(y, y)",
		// integer, string and set literals in every position
		`R(1, x) <- C("a", x) & D({rw}, x) <| E(2, "b")`,
		`R("a", {r}, 3) <- C(3, "a", {r})`,
		// a variable binds before a later slot of the same reference
		// fails: the binding must be rolled back
		`R(x, 1) <- C(y, "a") & D(x, y, {rw}) <| E(z, z, 2)`,
		// @host as an argument, parameterless references, election stars
		"R(@host) <- C(@host, x)",
		"R <- C <|* E",
		"R(x) <- C(x)* <|* E(x)* : x = 1",
		// variables the constraint alone allocates sit above the references'
		"R(x) <- C(y) : z = y and x = z",
	} {
		for seed := uint64(0); seed < 32; seed++ {
			f.Add(src, seed)
		}
	}
	// ...and with every rule of the example rolefiles.
	for _, r := range exampleRules() {
		f.Add(r.String(), uint64(0x5A5A))
	}

	f.Fuzz(func(t *testing.T, src string, seed uint64) {
		file, err := Parse(src)
		if err != nil || len(file.Rules) == 0 {
			return
		}
		rnd := rand.New(rand.NewSource(int64(seed)))
		draw := func(ref *RoleRef) []value.Type {
			if ref == nil {
				return nil
			}
			ts := make([]value.Type, len(ref.Args))
			for i := range ts {
				ts[i] = refTypePalette[rnd.Intn(len(refTypePalette))]
			}
			return ts
		}
		sigs := make([]RuleSig, len(file.Rules))
		for i, rule := range file.Rules {
			sigs[i] = RuleSig{Head: draw(&rule.Head), Elector: draw(rule.Elector)}
			for ci := range rule.Candidates {
				sigs[i].Candidates = append(sigs[i].Candidates, draw(&rule.Candidates[ci]))
			}
		}
		p, err := Compile(&Rolefile{File: file}, sigs)
		if err != nil {
			t.Fatalf("Compile(%q): %v", src, err)
		}
		for ri := range p.Rules {
			diffRefPlans(t, p, ri, sigs[ri], rnd)
		}
	})
}
