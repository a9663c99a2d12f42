package rdl

import (
	"fmt"
	"strings"

	"oasis/internal/value"
)

// GroupOracle answers group-membership queries during constraint
// evaluation ("u in staff").
type GroupOracle interface {
	IsMember(member value.Value, group string) bool
}

// GroupOracleFunc adapts a function to GroupOracle.
type GroupOracleFunc func(member value.Value, group string) bool

// IsMember implements GroupOracle.
func (f GroupOracleFunc) IsMember(m value.Value, g string) bool { return f(m, g) }

// MembershipCond is a starred entry condition captured during evaluation:
// its continued truth is required for the lifetime of the issued
// certificate (§3.2.3). For group tests the member value and group are
// recorded so the service can wire a credential record to them; other
// starred conditions are captured with their instantiated environment.
type MembershipCond struct {
	// Group test conditions (the common, efficiently monitorable case).
	IsGroupTest bool
	Member      value.Value
	Group       string
	Neg         bool

	// Generic starred expression, with the entry-time environment.
	Expr Expr
	Env  value.Env
}

// String renders the condition.
func (m MembershipCond) String() string {
	if m.IsGroupTest {
		op := "in"
		if m.Neg {
			op = "not in"
		}
		return fmt.Sprintf("%s %s %s", m.Member, op, m.Group)
	}
	return m.Expr.String() + " with " + m.Env.String()
}

// EvalContext supplies the environment for constraint evaluation.
type EvalContext struct {
	Env    value.Env
	Groups GroupOracle
	Funcs  FuncTable
}

// EvalResult is the outcome of evaluating a constraint.
type EvalResult struct {
	OK    bool
	Env   value.Env        // possibly extended by binding comparisons
	Conds []MembershipCond // starred sub-conditions that held
}

// Eval evaluates a constraint expression. Equality comparisons against a
// single unbound variable bind it (supporting the ACL extension of
// §3.3.3: r = unixacl("...", u)). Starred sub-expressions that hold are
// returned as membership conditions.
func Eval(e Expr, ctx EvalContext) (EvalResult, error) {
	ev := &evaluator{ctx: ctx, env: ctx.Env}
	ok, err := ev.eval(e, false)
	if err != nil {
		return EvalResult{}, err
	}
	return EvalResult{OK: ok, Env: ev.env, Conds: ev.conds}, nil
}

type evaluator struct {
	ctx   EvalContext
	env   value.Env
	conds []MembershipCond
}

// eval evaluates e; under negation (inNot) starred conditions are not
// collected — a membership rule must be a positively held condition.
func (ev *evaluator) eval(e Expr, inNot bool) (bool, error) {
	switch x := e.(type) {
	case AndExpr:
		l, err := ev.eval(x.L, inNot)
		if err != nil {
			return false, err
		}
		if !l {
			return false, nil
		}
		return ev.eval(x.R, inNot)
	case OrExpr:
		l, err := ev.eval(x.L, inNot)
		if err != nil {
			return false, err
		}
		if l {
			return true, nil
		}
		return ev.eval(x.R, inNot)
	case NotExpr:
		v, err := ev.eval(x.E, true)
		return !v, err
	case StarExpr:
		v, err := ev.eval(x.E, inNot)
		if err != nil || !v {
			return v, err
		}
		if !inNot {
			ev.record(x.E)
		}
		return true, nil
	case InExpr:
		m, err := ev.inOperand(x)
		if err != nil {
			return false, err
		}
		if ev.ctx.Groups == nil {
			return false, fmt.Errorf("rdl: no group oracle for %q", x.String())
		}
		in := ev.ctx.Groups.IsMember(m, x.Group)
		if x.Neg {
			return !in, nil
		}
		return in, nil
	case CmpExpr:
		return ev.compare(x)
	case CallExpr:
		v, err := ev.call(x.Call)
		if err != nil {
			return false, err
		}
		// Boolean functions return integer 0/1.
		if v.T.Kind != value.KindInt {
			return false, fmt.Errorf("rdl: boolean function %s returned %v", x.Call.Fn, v.T)
		}
		return v.I != 0, nil
	default:
		return false, fmt.Errorf("rdl: unknown expression %T", e)
	}
}

// inOperand evaluates the left-hand side of a group test.
func (ev *evaluator) inOperand(x InExpr) (value.Value, error) {
	if x.Call != nil {
		return ev.call(x.Call)
	}
	return ev.termValue(x.T)
}

// record captures a starred condition with instantiated environment.
func (ev *evaluator) record(e Expr) {
	if in, ok := e.(InExpr); ok {
		if m, err := ev.inOperand(in); err == nil {
			ev.conds = append(ev.conds, MembershipCond{
				IsGroupTest: true, Member: m, Group: in.Group, Neg: in.Neg,
			})
			return
		}
	}
	ev.conds = append(ev.conds, MembershipCond{Expr: e, Env: ev.env.Clone()})
}

func (ev *evaluator) termValue(t Term) (value.Value, error) {
	if t.Var != "" {
		v, ok := ev.env[t.Var]
		if !ok {
			return value.Value{}, fmt.Errorf("rdl: variable %s unbound", t.Var)
		}
		return v, nil
	}
	// Literals in constraints are interpreted without an expected type:
	// integers and strings directly; sets need context, so they are only
	// valid opposite a typed operand (handled in compare).
	switch {
	case t.IsInt:
		return value.Int(t.IntLit), nil
	case t.IsStr:
		return value.Str(t.StrLit), nil
	default:
		return value.Value{}, fmt.Errorf("rdl: set literal needs a typed context")
	}
}

func (ev *evaluator) operandValue(o Operand) (value.Value, error) {
	if o.Call != nil {
		return ev.call(o.Call)
	}
	return ev.termValue(*o.Term)
}

func (ev *evaluator) call(c *Call) (value.Value, error) {
	f, ok := ev.ctx.Funcs[c.Fn]
	if !ok {
		return value.Value{}, fmt.Errorf("rdl: unknown function %s", c.Fn)
	}
	args := make([]value.Value, len(c.Args))
	for i, a := range c.Args {
		v, err := ev.operandValue(a)
		if err != nil {
			return value.Value{}, err
		}
		args[i] = v
	}
	return f.Fn(args)
}

// compare evaluates a comparison, performing variable binding when one
// side is a single unbound variable and the operator is '='.
func (ev *evaluator) compare(x CmpExpr) (bool, error) {
	lv, lerr := ev.operandValue(x.L)
	rv, rerr := ev.operandValue(x.R)

	if x.Op == CmpEq {
		if lerr != nil && rerr == nil {
			if v, ok := unboundVar(x.L, ev.env); ok {
				ev.env = ev.env.Extend(v, rv)
				return true, nil
			}
		}
		if rerr != nil && lerr == nil {
			if v, ok := unboundVar(x.R, ev.env); ok {
				ev.env = ev.env.Extend(v, lv)
				return true, nil
			}
		}
	}
	// Set literals get their type from the other side.
	if lerr != nil && rerr == nil {
		if t := x.L.Term; t != nil && t.IsSet && rv.T.Kind == value.KindSet {
			var err error
			lv, err = value.Set(rv.T.Universe, t.SetLit)
			if err != nil {
				return false, err
			}
			lerr = nil
		}
	}
	if rerr != nil && lerr == nil {
		if t := x.R.Term; t != nil && t.IsSet && lv.T.Kind == value.KindSet {
			var err error
			rv, err = value.Set(lv.T.Universe, t.SetLit)
			if err != nil {
				return false, err
			}
			rerr = nil
		}
	}
	if lerr != nil {
		return false, lerr
	}
	if rerr != nil {
		return false, rerr
	}

	switch x.Op {
	case CmpEq:
		return lv.Equal(rv), nil
	case CmpNeq:
		return !lv.Equal(rv), nil
	case CmpLe:
		if lv.T.Kind == value.KindSet {
			return lv.SubsetOf(rv)
		}
		return orderCmp(lv, rv, func(c int) bool { return c <= 0 })
	case CmpGe:
		if lv.T.Kind == value.KindSet {
			return rv.SubsetOf(lv)
		}
		return orderCmp(lv, rv, func(c int) bool { return c >= 0 })
	case CmpLt:
		return orderCmp(lv, rv, func(c int) bool { return c < 0 })
	case CmpGt:
		return orderCmp(lv, rv, func(c int) bool { return c > 0 })
	default:
		return false, fmt.Errorf("rdl: bad comparison operator")
	}
}

func unboundVar(o Operand, env value.Env) (string, bool) {
	if o.Term == nil || o.Term.Var == "" {
		return "", false
	}
	if _, bound := env[o.Term.Var]; bound {
		return "", false
	}
	return o.Term.Var, true
}

func orderCmp(a, b value.Value, pred func(int) bool) (bool, error) {
	if !a.T.Equal(b.T) {
		return false, fmt.Errorf("rdl: ordered comparison of %v and %v", a.T, b.T)
	}
	switch a.T.Kind {
	case value.KindInt:
		switch {
		case a.I < b.I:
			return pred(-1), nil
		case a.I > b.I:
			return pred(1), nil
		default:
			return pred(0), nil
		}
	case value.KindString:
		return pred(strings.Compare(a.S, b.S)), nil
	default:
		return false, fmt.Errorf("rdl: no order defined on %v", a.T)
	}
}

// Axiom renders the rule as the proof-system axiom of §3.2.2: premises
// above the line, conclusion below.
func Axiom(r *Rule) string {
	var prem []string
	for _, c := range r.Candidates {
		prem = append(prem, "c owns "+c.String())
	}
	if r.Elector != nil {
		prem = append(prem, "c <| c'", "c' owns "+r.Elector.String())
	}
	if r.Revoker != nil {
		prem = append(prem, "not Revoked("+r.Head.String()+")")
	}
	if r.Constraint != nil {
		prem = append(prem, r.Constraint.String())
	}
	prem = append(prem, "c requests entry to "+r.Head.String())
	var b strings.Builder
	for _, p := range prem {
		b.WriteString(p)
		b.WriteByte('\n')
	}
	b.WriteString("--------\n")
	b.WriteString("c owns " + r.Head.String())
	return b.String()
}
