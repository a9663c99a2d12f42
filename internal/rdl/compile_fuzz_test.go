package rdl

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"oasis/internal/value"
)

// collectVars gathers the variable names a constraint mentions, sorted,
// so the fuzzer can bind deterministic subsets of them.
func collectVars(e Expr) []string {
	seen := map[string]bool{}
	var walkOperand func(o Operand)
	var walkCall func(c *Call)
	walkTerm := func(t Term) {
		if t.Var != "" {
			seen[t.Var] = true
		}
	}
	walkCall = func(c *Call) {
		for _, a := range c.Args {
			walkOperand(a)
		}
	}
	walkOperand = func(o Operand) {
		if o.Call != nil {
			walkCall(o.Call)
			return
		}
		walkTerm(*o.Term)
	}
	var walk func(e Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case AndExpr:
			walk(x.L)
			walk(x.R)
		case OrExpr:
			walk(x.L)
			walk(x.R)
		case NotExpr:
			walk(x.E)
		case StarExpr:
			walk(x.E)
		case InExpr:
			if x.Call != nil {
				walkCall(x.Call)
			} else {
				walkTerm(x.T)
			}
		case CmpExpr:
			walkOperand(x.L)
			walkOperand(x.R)
		case CallExpr:
			walkCall(x.Call)
		}
	}
	walk(e)
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// fuzzValue derives a typed value for a variable from two seed bits.
func fuzzValue(sel uint64, name string) value.Value {
	switch sel & 3 {
	case 0:
		return value.Int(int64(sel>>2)%5 - 2)
	case 1:
		return value.Str(name)
	case 2:
		return value.MustSet("rwx", "rwx"[:int(sel>>2)%4])
	default:
		return value.Object("Fz.id", name)
	}
}

func fuzzFuncs() FuncTable {
	return FuncTable{
		"inc": &Func{Result: value.IntType, Fn: func(a []value.Value) (value.Value, error) {
			if len(a) == 0 || a[0].T.Kind != value.KindInt {
				return value.Value{}, fmt.Errorf("inc wants an integer")
			}
			return value.Int(a[0].I + 1), nil
		}},
		"name": &Func{Result: value.StringType, Fn: func(a []value.Value) (value.Value, error) {
			return value.Str("alice"), nil
		}},
		"boom": &Func{Result: value.IntType, Fn: func(a []value.Value) (value.Value, error) {
			return value.Value{}, fmt.Errorf("boom failed")
		}},
	}
}

// exampleRules returns every rule of every example rolefile, in path
// order, as seed material for the fuzzers. A file that cannot be read
// or parsed contributes nothing here; the example table tests fail on it.
func exampleRules() []*Rule {
	var rules []*Rule
	paths, _ := filepath.Glob("../../examples/*/*.rdl")
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		file, err := Parse(string(src))
		if err != nil {
			continue
		}
		rules = append(rules, file.Rules...)
	}
	return rules
}

// FuzzCompileEval is the differential fuzzer of the compiled VM: any
// constraint the parser accepts must produce the same EvalResult —
// verdict, environment, captured conditions — or the same error from
// both the interpreter and the compiled program, under fuzzer-chosen
// environments and oracles.
func FuzzCompileEval(f *testing.F) {
	// Seed with the semantic corners the unit differential covers...
	for _, src := range []string{
		"a = 3", "x = 3 and x < b", "3 = x", "x = y", "a <= r",
		"r = {rw}", "{r} <= r", "{zz} <= r", "u in staff",
		"u not in staff", "(u in staff)*", "not (u in staff)*",
		"not (not ((u in staff)*))", "((u in staff) and a = 3)*",
		"(a = 3)* or (b = 5)*", "a = 4 and (u in staff)*",
		"(name() in staff)*", "inc(a) = 4", "boom()", "mystery()",
		"z = z", "s < a", "((u in staff)* and (a = 3)*)*",
	} {
		f.Add(src, uint64(0xA5A5), uint8(0))
		f.Add(src, uint64(0), uint8(1))
	}
	// ...and with every constraint in the example rolefiles.
	for _, r := range exampleRules() {
		if r.Constraint != nil {
			f.Add(r.Constraint.String(), uint64(0x5A5A), uint8(2))
		}
	}

	f.Fuzz(func(t *testing.T, src string, envSeed uint64, oracleMode uint8) {
		file, err := Parse("R <- S : " + src)
		if err != nil {
			return
		}
		expr := file.Rules[0].Constraint
		if expr == nil {
			return
		}
		rf := &Rolefile{File: file, Types: map[string][]value.Type{"R": {}, "S": {}}}
		p, err := Compile(rf, nil)
		if err != nil {
			t.Fatalf("Compile(%q): %v", src, err)
		}

		// Bind a seed-chosen subset of the constraint's variables to
		// seed-chosen typed values.
		env := value.Env{}
		seed := envSeed
		for _, name := range collectVars(expr) {
			if seed&1 == 1 {
				env[name] = fuzzValue(seed>>1, name)
			}
			seed >>= 4
		}

		var groups GroupOracle
		switch oracleMode % 3 {
		case 0:
			groups = parityGroups(true)
		case 1:
			groups = parityGroups(false)
		}
		var funcs FuncTable
		if oracleMode%2 == 0 {
			funcs = fuzzFuncs()
		}
		ctx := EvalContext{Env: env, Groups: groups, Funcs: funcs}

		ir, ierr := Eval(expr, ctx)
		cr, cerr := p.EvalRule(0, ctx)
		if (ierr == nil) != (cerr == nil) {
			t.Fatalf("%q: error divergence: interpreter=%v compiled=%v", src, ierr, cerr)
		}
		if ierr != nil {
			if ierr.Error() != cerr.Error() {
				t.Fatalf("%q: error message divergence: interpreter=%q compiled=%q", src, ierr, cerr)
			}
			return
		}
		if ir.OK != cr.OK {
			t.Fatalf("%q: verdict divergence: interpreter=%v compiled=%v", src, ir.OK, cr.OK)
		}
		if ir.Env.String() != cr.Env.String() {
			t.Fatalf("%q: env divergence:\ninterpreter=%v\ncompiled=%v", src, ir.Env, cr.Env)
		}
		ic, cc := normConds(ir.Conds), normConds(cr.Conds)
		if len(ic) != len(cc) {
			t.Fatalf("%q: cond count divergence: interpreter=%v compiled=%v", src, ir.Conds, cr.Conds)
		}
		for i := range ic {
			if ic[i] != cc[i] {
				t.Fatalf("%q: cond %d divergence:\ninterpreter=%+v\ncompiled=%+v", src, i, ic[i], cc[i])
			}
		}
	})
}
