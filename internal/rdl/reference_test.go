package rdl

import (
	"fmt"

	"oasis/internal/value"
)

// The reference semantics the compiled plan is differentially tested
// against. Eval (eval.go) is the reference for constraints; the three
// functions here complete it: argument unification and head
// instantiation over environments — what MatchPlan and Instantiate
// must mean — and the adapter that runs a compiled constraint behind
// Eval's signature.

// MatchArgs matches a role reference's argument terms against concrete
// values under env: literals must equal the value (coerced via the
// expected type), variables bind or must agree. It returns the extended
// environment. This is the unification step of applying an entry rule.
func MatchArgs(args []Term, types []value.Type, vals []value.Value, env value.Env) (value.Env, bool, error) {
	if len(args) != len(vals) || len(args) != len(types) {
		return nil, false, fmt.Errorf("rdl: arity mismatch: %d terms, %d types, %d values", len(args), len(types), len(vals))
	}
	out := env
	for i, a := range args {
		if a.Var != "" {
			if bound, ok := out[a.Var]; ok {
				if !bound.Equal(vals[i]) {
					return nil, false, nil
				}
			} else {
				out = out.Extend(a.Var, vals[i])
			}
			continue
		}
		lit, err := LiteralValue(a, types[i])
		if err != nil {
			return nil, false, err
		}
		if !lit.Equal(vals[i]) {
			return nil, false, nil
		}
	}
	return out, true, nil
}

// InstantiateArgs produces concrete argument values for a role reference
// from the environment; every variable must be bound and every literal is
// coerced via the expected type.
func InstantiateArgs(args []Term, types []value.Type, env value.Env) ([]value.Value, error) {
	if len(args) != len(types) {
		return nil, fmt.Errorf("rdl: arity mismatch: %d terms, %d types", len(args), len(types))
	}
	out := make([]value.Value, len(args))
	for i, a := range args {
		if a.Var != "" {
			v, ok := env[a.Var]
			if !ok {
				return nil, fmt.Errorf("rdl: variable %s unbound", a.Var)
			}
			if !v.T.Equal(types[i]) {
				return nil, fmt.Errorf("rdl: variable %s has type %v, expected %v", a.Var, v.T, types[i])
			}
			out[i] = v
			continue
		}
		lit, err := LiteralValue(a, types[i])
		if err != nil {
			return nil, err
		}
		out[i] = lit
	}
	return out, nil
}

// EvalRule evaluates rule i's constraint under ctx, producing exactly
// what Eval produces for the same constraint: verdict, possibly
// extended environment, and captured membership conditions. It is the
// drop-in compiled counterpart the differential tests compare against
// the interpreter.
func (p *Program) EvalRule(i int, ctx EvalContext) (EvalResult, error) {
	if p.Rules[i].Code == nil {
		return EvalResult{OK: true, Env: ctx.Env}, nil
	}
	m := p.NewMachine()
	m.Reset(i)
	m.SeedEnv(ctx.Env)
	ok, err := m.RunConstraint(ctx.Groups, ctx.Funcs)
	if err != nil {
		return EvalResult{}, err
	}
	return EvalResult{OK: ok, Env: m.ResultEnv(), Conds: m.conds}, nil
}
