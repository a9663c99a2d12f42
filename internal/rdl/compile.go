package rdl

import (
	"fmt"

	"oasis/internal/value"
)

// RuleSig supplies the resolved argument types for one rule's role
// references — the service's entry-time view (gettypes already done).
// Any field may be nil when the types are unknown; literal arguments in
// a reference with unknown types compile to unresolvable slots.
type RuleSig struct {
	Head       []value.Type
	Candidates [][]value.Type
	Elector    []value.Type
	Revoker    []value.Type
}

// Compile lowers a checked rolefile into a Program. sigs, when non-nil,
// gives authoritative per-rule signatures (one entry per rule, in
// order); when nil, signatures are derived from the rolefile itself —
// local roles from rf.Types, foreign references from rf.Foreign, best
// effort. Compilation preserves rule order: the program applies rules
// with exactly the interpreter's precedence (§3.2.2).
func Compile(rf *Rolefile, sigs []RuleSig) (*Program, error) {
	if sigs != nil && len(sigs) != len(rf.File.Rules) {
		return nil, fmt.Errorf("rdl: %d signatures for %d rules", len(sigs), len(rf.File.Rules))
	}
	c := &compiler{
		p:        &Program{Rolefile: rf, ByHead: make(map[string][]int)},
		constIdx: make(map[value.Value]int32),
		setIdx:   make(map[string]int32),
	}
	for i, rule := range rf.File.Rules {
		var sig RuleSig
		if sigs != nil {
			sig = sigs[i]
		} else {
			sig = c.deriveSig(rf, rule)
		}
		cr, err := c.rule(i, rule, sig)
		if err != nil {
			return nil, fmt.Errorf("rdl: rule %d (%s): %v", i+1, rule.Head.Name, err)
		}
		c.p.Rules = append(c.p.Rules, cr)
		c.p.ByHead[rule.Head.Name] = append(c.p.ByHead[rule.Head.Name], i)
		if n := len(cr.Regs); n > c.p.MaxRegs {
			c.p.MaxRegs = n
		}
	}
	return c.p, nil
}

type compiler struct {
	p        *Program
	constIdx map[value.Value]int32
	setIdx   map[string]int32
}

// deriveSig resolves reference signatures from the rolefile alone:
// local roles are always known; foreign ones come from the Foreign map
// when checking recorded them.
func (c *compiler) deriveSig(rf *Rolefile, rule *Rule) RuleSig {
	refTypes := func(ref *RoleRef) []value.Type {
		if ref == nil {
			return nil
		}
		if ref.Local() {
			return rf.Types[ref.Name]
		}
		return rf.Foreign[ForeignKey(ref.Service, ref.Rolefile, ref.Name)]
	}
	sig := RuleSig{
		Head:    refTypes(&rule.Head),
		Elector: refTypes(rule.Elector),
		Revoker: refTypes(rule.Revoker),
	}
	for i := range rule.Candidates {
		sig.Candidates = append(sig.Candidates, refTypes(&rule.Candidates[i]))
	}
	return sig
}

// ruleCompiler holds per-rule state: the register file layout and the
// instruction stream under construction.
type ruleCompiler struct {
	c      *compiler
	regs   []string
	regIdx map[string]int32
	code   []Instr
}

func (c *compiler) rule(i int, rule *Rule, sig RuleSig) (CompiledRule, error) {
	rc := &ruleCompiler{
		c: c,
		// Register 0 is always @host: the request environment binds it
		// before any rule applies (§3.4.3), so env snapshots include it.
		regs:   []string{"@host"},
		regIdx: map[string]int32{"@host": 0},
	}
	cr := CompiledRule{
		Index: i,
		Rule:  rule,
		Head:  rc.refPlan(&rule.Head, sig.Head),
	}
	if len(sig.Candidates) == len(rule.Candidates) {
		for ci := range rule.Candidates {
			cr.Cands = append(cr.Cands, rc.refPlan(&rule.Candidates[ci], sig.Candidates[ci]))
		}
	} else {
		for ci := range rule.Candidates {
			cr.Cands = append(cr.Cands, rc.refPlan(&rule.Candidates[ci], nil))
		}
	}
	if rule.Elector != nil {
		ep := rc.refPlan(rule.Elector, sig.Elector)
		cr.Elector = &ep
	}
	if rule.Constraint != nil {
		if err := rc.expr(rule.Constraint, false); err != nil {
			return CompiledRule{}, err
		}
		cr.Code = rc.code
	}
	cr.Regs = rc.regs
	return cr, nil
}

// regFor returns the register slot of a variable, allocating on first
// use. Allocation order follows the rule's surface order: head
// arguments, candidates left to right, the elector, then constraint
// operands.
func (rc *ruleCompiler) regFor(name string) int32 {
	if r, ok := rc.regIdx[name]; ok {
		return r
	}
	r := int32(len(rc.regs))
	rc.regs = append(rc.regs, name)
	rc.regIdx[name] = r
	return r
}

// refPlan compiles a role reference's argument list against its
// signature. Literals are coerced at compile time; a literal whose type
// is unknown or uncoercible becomes an unresolvable slot that never
// matches and never instantiates — the interpreter reports the same
// situation as a per-use coercion error, which its callers treat as
// "rule not applicable".
func (rc *ruleCompiler) refPlan(ref *RoleRef, types []value.Type) RefPlan {
	rp := RefPlan{
		Service:  ref.Service,
		Rolefile: ref.Rolefile,
		Name:     ref.Name,
		Starred:  ref.Starred,
		Args:     make([]ArgSlot, len(ref.Args)),
	}
	if len(types) == len(ref.Args) {
		rp.Types = types
	}
	for i, a := range ref.Args {
		if a.Var != "" {
			rp.Args[i] = ArgSlot{Reg: rc.regFor(a.Var), Const: -1}
			continue
		}
		rp.Args[i] = ArgSlot{Reg: -1, Const: -1}
		if rp.Types == nil {
			continue
		}
		lit, err := LiteralValue(a, rp.Types[i])
		if err != nil {
			continue
		}
		rp.Args[i].Const = rc.c.constFor(lit)
	}
	return rp
}

func (c *compiler) constFor(v value.Value) int32 {
	if i, ok := c.constIdx[v]; ok {
		return i
	}
	i := int32(len(c.p.Consts))
	c.p.Consts = append(c.p.Consts, v)
	c.constIdx[v] = i
	return i
}

func (c *compiler) setLitFor(members string) int32 {
	if i, ok := c.setIdx[members]; ok {
		return i
	}
	i := int32(len(c.p.SetLits))
	c.p.SetLits = append(c.p.SetLits, members)
	c.setIdx[members] = i
	return i
}

func (rc *ruleCompiler) emit(in Instr) int {
	rc.code = append(rc.code, in)
	return len(rc.code) - 1
}

func (rc *ruleCompiler) patch(j int) { rc.code[j].A = int32(len(rc.code)) }

// expr compiles a constraint expression to instructions leaving the
// verdict in the accumulator. inNot mirrors the interpreter's flag: a
// surrounding negation suppresses star capture and is NOT toggled by
// further nesting.
func (rc *ruleCompiler) expr(e Expr, inNot bool) error {
	switch x := e.(type) {
	case AndExpr:
		if err := rc.expr(x.L, inNot); err != nil {
			return err
		}
		j := rc.emit(Instr{Op: OpJumpIfFalse})
		if err := rc.expr(x.R, inNot); err != nil {
			return err
		}
		rc.patch(j)
		return nil
	case OrExpr:
		if err := rc.expr(x.L, inNot); err != nil {
			return err
		}
		j := rc.emit(Instr{Op: OpJumpIfTrue})
		if err := rc.expr(x.R, inNot); err != nil {
			return err
		}
		rc.patch(j)
		return nil
	case NotExpr:
		if err := rc.expr(x.E, true); err != nil {
			return err
		}
		rc.emit(Instr{Op: OpNot})
		return nil
	case StarExpr:
		if err := rc.expr(x.E, inNot); err != nil {
			return err
		}
		if !inNot {
			j := rc.emit(Instr{Op: OpJumpIfFalse})
			rc.emit(rc.capture(x.E))
			rc.patch(j)
		}
		return nil
	case InExpr:
		l, err := rc.inOperand(x)
		if err != nil {
			return err
		}
		rc.emit(Instr{Op: OpGroupTest, L: l, Grp: x.Group, Neg: x.Neg, Src: x.String()})
		return nil
	case CmpExpr:
		l, err := rc.operand(x.L)
		if err != nil {
			return err
		}
		r, err := rc.operand(x.R)
		if err != nil {
			return err
		}
		rc.emit(Instr{Op: OpCmp, Cmp: x.Op, L: l, R: r})
		return nil
	case CallExpr:
		idx, err := rc.call(x.Call)
		if err != nil {
			return err
		}
		rc.emit(Instr{Op: OpBoolCall, A: idx})
		return nil
	default:
		return fmt.Errorf("unknown expression %T", e)
	}
}

// capture builds the OpStarCapture for a starred sub-expression that
// just held: the group-test form when the expression is a direct group
// test (falling back to a generic capture at run time if its operand
// fails to re-evaluate), the generic form otherwise — exactly the two
// shapes the interpreter's record() emits.
func (rc *ruleCompiler) capture(e Expr) Instr {
	if in, ok := e.(InExpr); ok {
		if l, err := rc.inOperand(in); err == nil {
			return Instr{Op: OpStarCapture, CapGroup: true, L: l, Grp: in.Group, Neg: in.Neg, Capture: e}
		}
	}
	return Instr{Op: OpStarCapture, Capture: e}
}

func (rc *ruleCompiler) inOperand(x InExpr) (operand, error) {
	if x.Call != nil {
		idx, err := rc.call(x.Call)
		if err != nil {
			return operand{}, err
		}
		return operand{Kind: oCall, Idx: idx}, nil
	}
	return rc.term(x.T)
}

func (rc *ruleCompiler) operand(o Operand) (operand, error) {
	if o.Call != nil {
		idx, err := rc.call(o.Call)
		if err != nil {
			return operand{}, err
		}
		return operand{Kind: oCall, Idx: idx}, nil
	}
	return rc.term(*o.Term)
}

// term compiles a constraint term. Literals follow the interpreter's
// untyped rules: integers and strings directly, set literals deferred
// to a typed context at run time (oSetLit).
func (rc *ruleCompiler) term(t Term) (operand, error) {
	switch {
	case t.Var != "":
		return operand{Kind: oReg, Idx: rc.regFor(t.Var)}, nil
	case t.IsInt:
		return operand{Kind: oConst, Idx: rc.c.constFor(value.Int(t.IntLit))}, nil
	case t.IsStr:
		return operand{Kind: oConst, Idx: rc.c.constFor(value.Str(t.StrLit))}, nil
	case t.IsSet:
		return operand{Kind: oSetLit, Idx: rc.c.setLitFor(t.SetLit)}, nil
	default:
		return operand{}, fmt.Errorf("empty term")
	}
}

func (rc *ruleCompiler) call(cl *Call) (int32, error) {
	cp := callPlan{Fn: cl.Fn, Args: make([]operand, len(cl.Args))}
	for i, a := range cl.Args {
		o, err := rc.operand(a)
		if err != nil {
			return 0, err
		}
		cp.Args[i] = o
	}
	idx := int32(len(rc.c.p.Calls))
	rc.c.p.Calls = append(rc.c.p.Calls, cp)
	return idx, nil
}
