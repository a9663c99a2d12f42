package rdl

import (
	"fmt"
	"strconv"
	"strings"

	"oasis/internal/value"
)

// This file defines the compiled form of a checked rolefile — the
// execution plan role entry runs instead of walking the AST — and the
// register machine that evaluates it. The compiler lives in compile.go.
//
// A Program is immutable after Compile and safe for concurrent use; all
// mutable evaluation state lives in a Machine, which one request owns
// for its duration and may be pooled across requests.

// Op is a VM opcode. Every instruction reads and/or writes the boolean
// accumulator; short-circuit evaluation is jump-threaded, so And/Or
// have no opcodes of their own.
type Op uint8

// The instruction set. See docs/RDL.md "The compiled execution plan".
const (
	// OpNot negates the accumulator.
	OpNot Op = iota
	// OpJumpIfFalse jumps to A when the accumulator is false.
	OpJumpIfFalse
	// OpJumpIfTrue jumps to A when the accumulator is true.
	OpJumpIfTrue
	// OpGroupTest evaluates operand L and asks the group oracle whether
	// it belongs to group Grp; Neg inverts the verdict.
	OpGroupTest
	// OpCmp compares operands L and R under Cmp. An '=' against a
	// single unbound register binds it (the ACL extension, §3.3.3); a
	// set literal takes its universe from the opposite operand.
	OpCmp
	// OpBoolCall invokes server-specific function Calls[A] and loads
	// its 0/1 integer result.
	OpBoolCall
	// OpStarCapture records the starred condition that just evaluated
	// true as a MembershipCond (§3.2.3): a group-test condition when
	// CapGroup is set, a generic expression capture otherwise.
	OpStarCapture
)

// operand kinds.
const (
	oReg    uint8 = iota + 1 // register (variable slot)
	oConst                   // Program.Consts index
	oCall                    // Program.Calls index
	oSetLit                  // Program.SetLits index (untyped set literal)
)

// operand names a value source for an instruction.
type operand struct {
	Kind uint8
	Idx  int32
}

// Instr is one VM instruction.
type Instr struct {
	Op   Op
	A    int32 // jump target or call index
	Cmp  CmpOp
	L, R operand
	Grp  string // group name (OpGroupTest, group OpStarCapture)
	Neg  bool
	// CapGroup marks an OpStarCapture of a direct group test; Capture
	// is the starred sub-expression, kept for generic captures and as
	// the fallback when the member operand cannot be evaluated.
	CapGroup bool
	Capture  Expr
	// Src is the surface rendering, used in error messages.
	Src string
}

// ArgSlot is one compiled argument of a role reference: a register to
// bind or test, or a pre-coerced literal constant. A slot with neither
// (Reg < 0, Const < 0) is unresolvable — its literal could not be
// coerced against the reference's signature — and never matches: a
// per-use coercion error would make the rule inapplicable every time.
type ArgSlot struct {
	Reg   int32 // register index, or -1
	Const int32 // Program.Consts index, or -1
}

// RefPlan is a compiled role reference: the resolved target, per-slot
// argument plan, and the reference's argument types (used for literal
// coercion at compile time and head-instantiation type checks at run
// time).
type RefPlan struct {
	Service  string // "" = the defining service
	Rolefile string // "" = any rolefile of that service
	Name     string
	Starred  bool
	Args     []ArgSlot
	Types    []value.Type // may be nil when compiled without signatures
}

// CompiledRule is the execution plan of one entry rule.
type CompiledRule struct {
	Index int // position in the rolefile; order is precedence (§3.2.2)
	Head  RefPlan
	Cands []RefPlan
	// Elector is the elector reference of an election-form rule (<|),
	// nil for a standard rule. Delegation binds it against the elector's
	// certificate; entry applies the rule only when it presents the
	// resulting delegation (§4.4).
	Elector *RefPlan
	// Regs names the rule's registers; register 0 is always the ambient
	// @host binding.
	Regs []string
	// Code is the constraint's instruction stream; nil marks a
	// constraint-free rule, which the entry engine applies with no VM
	// run at all.
	Code []Instr
	// Rule is the source rule (for disassembly, the revoker clause and
	// the star on the election operator, which the engine reads off the
	// AST).
	Rule *Rule
}

// callPlan is a compiled server-specific function call.
type callPlan struct {
	Fn   string
	Args []operand
}

// Program is a compiled rolefile: one plan per rule, in source order,
// plus the dispatch indexes role entry uses.
type Program struct {
	Rolefile *Rolefile
	Rules    []CompiledRule
	// ByHead buckets rule indexes by head role name, preserving source
	// order within each bucket.
	ByHead map[string][]int
	// MaxRegs is the largest register file any rule needs; a Machine
	// sized to it serves every rule.
	MaxRegs int

	Consts  []value.Value
	SetLits []string
	Calls   []callPlan
}

// RulesFor returns the indexes of the rules whose head is the named
// role, in precedence order.
func (p *Program) RulesFor(role string) []int { return p.ByHead[role] }

// Machine is the mutable evaluation state for one request: a register
// file, the bound set, and the starred conditions captured so far. It
// is not safe for concurrent use; pool and Reset it between requests.
type Machine struct {
	p     *Program
	rule  *CompiledRule
	regs  []value.Value
	bound []bool
	// newly lists registers bound since the last Reset/seed, in binding
	// order: candidate matching rolls failed attempts back through it,
	// and ResultEnv extends the base environment from it.
	newly  []int32
	seeded int // len(newly) that came from SeedEnv, exempt from ResultEnv
	conds  []MembershipCond
	base   value.Env
	groups GroupOracle
	funcs  FuncTable
}

// NewMachine returns a machine sized for the program's largest rule.
func (p *Program) NewMachine() *Machine {
	return &Machine{
		p:     p,
		regs:  make([]value.Value, p.MaxRegs),
		bound: make([]bool, p.MaxRegs),
	}
}

// Reset points the machine at rule i and clears all evaluation state.
func (m *Machine) Reset(i int) {
	m.rule = &m.p.Rules[i]
	for r := range m.rule.Regs {
		m.bound[r] = false
	}
	m.newly = m.newly[:0]
	m.seeded = 0
	m.conds = m.conds[:0]
	m.base = nil
	m.groups = nil
	m.funcs = nil
}

// BindHost binds register 0, the ambient @host variable every rule
// reserves (the request-environment seeding of §3.4.3).
func (m *Machine) BindHost(v value.Value) { m.bind(0, v) }

// SeedEnv seeds registers from an environment and records it as the
// base for ResultEnv and captured-condition snapshots. Delegated entry
// seeds the bindings ResultEnv saved when the delegation was issued.
func (m *Machine) SeedEnv(env value.Env) {
	m.base = env
	for i, name := range m.rule.Regs {
		if v, ok := env[name]; ok {
			m.bind(int32(i), v)
		}
	}
	m.seeded = len(m.newly)
}

func (m *Machine) bind(r int32, v value.Value) {
	m.regs[r] = v
	m.bound[r] = true
	m.newly = append(m.newly, r)
}

// MatchPlan unifies a reference's argument plan against concrete values:
// constants must be equal, bound registers must agree, unbound registers
// bind. On failure every register bound during this attempt is rolled
// back, so the next candidate on the list starts clean.
func (m *Machine) MatchPlan(ref *RefPlan, vals []value.Value) bool {
	if len(ref.Args) != len(vals) {
		return false
	}
	mark := len(m.newly)
	for i := range ref.Args {
		a := &ref.Args[i]
		switch {
		case a.Reg >= 0:
			if m.bound[a.Reg] {
				if !m.regs[a.Reg].Equal(vals[i]) {
					m.rollback(mark)
					return false
				}
				continue
			}
			m.bind(a.Reg, vals[i])
		case a.Const >= 0:
			if !m.p.Consts[a.Const].Equal(vals[i]) {
				m.rollback(mark)
				return false
			}
		default: // unresolvable literal: never matches
			m.rollback(mark)
			return false
		}
	}
	return true
}

func (m *Machine) rollback(mark int) {
	for _, r := range m.newly[mark:] {
		m.bound[r] = false
	}
	m.newly = m.newly[:mark]
}

// Instantiate produces the concrete argument vector for a reference
// from the register file: every register must be bound with the
// declared type, every literal is its pre-coerced constant. An
// uninstantiable head means the rule is not applicable.
func (m *Machine) Instantiate(ref *RefPlan) ([]value.Value, bool) {
	out := make([]value.Value, len(ref.Args))
	for i := range ref.Args {
		a := &ref.Args[i]
		switch {
		case a.Reg >= 0:
			if !m.bound[a.Reg] {
				return nil, false
			}
			v := m.regs[a.Reg]
			if ref.Types != nil && !v.T.Equal(ref.Types[i]) {
				return nil, false
			}
			out[i] = v
		case a.Const >= 0:
			out[i] = m.p.Consts[a.Const]
		default:
			return nil, false
		}
	}
	return out, true
}

// Conds returns the starred conditions captured so far, in evaluation
// order — the same order the interpreter records them.
func (m *Machine) Conds() []MembershipCond { return m.conds }

// ResultEnv reproduces the interpreter's result environment: the base
// environment extended by every binding made after seeding. When
// nothing bound, the base is returned as-is (Eval returns the input
// environment unchanged in that case too). Delegation saves the
// elector-side bindings of an election rule with it.
func (m *Machine) ResultEnv() value.Env {
	runtime := m.newly[m.seeded:]
	if len(runtime) == 0 {
		return m.base
	}
	env := make(value.Env, len(m.base)+len(runtime))
	for k, v := range m.base {
		env[k] = v
	}
	for _, r := range runtime {
		env[m.rule.Regs[r]] = m.regs[r]
	}
	return env
}

// snapshotEnv reconstructs the interpreter's evaluation environment at
// a capture point: the base environment overlaid with every bound
// register. Seeded registers restate base values harmlessly; runtime
// bindings extend it.
func (m *Machine) snapshotEnv() value.Env {
	env := make(value.Env, len(m.base)+len(m.rule.Regs))
	for k, v := range m.base {
		env[k] = v
	}
	for i, name := range m.rule.Regs {
		if m.bound[i] {
			env[name] = m.regs[i]
		}
	}
	return env
}

// RunConstraint executes the rule's instruction stream and returns the
// constraint verdict. Captured starred conditions accumulate on the
// machine; bindings made by '=' stay in the register file. A rule with
// no code is vacuously true.
func (m *Machine) RunConstraint(groups GroupOracle, funcs FuncTable) (bool, error) {
	code := m.rule.Code
	if len(code) == 0 {
		return true, nil
	}
	m.groups, m.funcs = groups, funcs
	acc := false
	for pc := 0; pc < len(code); {
		in := &code[pc]
		switch in.Op {
		case OpNot:
			acc = !acc
		case OpJumpIfFalse:
			if !acc {
				pc = int(in.A)
				continue
			}
		case OpJumpIfTrue:
			if acc {
				pc = int(in.A)
				continue
			}
		case OpGroupTest:
			mv, err := m.operand(in.L)
			if err != nil {
				return false, err
			}
			if m.groups == nil {
				return false, fmt.Errorf("rdl: no group oracle for %q", in.Src)
			}
			r := m.groups.IsMember(mv, in.Grp)
			if in.Neg {
				r = !r
			}
			acc = r
		case OpCmp:
			r, err := m.cmp(in)
			if err != nil {
				return false, err
			}
			acc = r
		case OpBoolCall:
			v, err := m.call(&m.p.Calls[in.A])
			if err != nil {
				return false, err
			}
			if v.T.Kind != value.KindInt {
				return false, fmt.Errorf("rdl: boolean function %s returned %v", m.p.Calls[in.A].Fn, v.T)
			}
			acc = v.I != 0
		case OpStarCapture:
			m.capture(in)
		default:
			return false, fmt.Errorf("rdl: bad opcode %d", in.Op)
		}
		pc++
	}
	return acc, nil
}

// operand evaluates a value source. The error messages match the
// interpreter's exactly — the differential tests compare them.
func (m *Machine) operand(o operand) (value.Value, error) {
	switch o.Kind {
	case oReg:
		if !m.bound[o.Idx] {
			return value.Value{}, fmt.Errorf("rdl: variable %s unbound", m.rule.Regs[o.Idx])
		}
		return m.regs[o.Idx], nil
	case oConst:
		return m.p.Consts[o.Idx], nil
	case oCall:
		return m.call(&m.p.Calls[o.Idx])
	case oSetLit:
		return value.Value{}, fmt.Errorf("rdl: set literal needs a typed context")
	default:
		return value.Value{}, fmt.Errorf("rdl: bad operand kind %d", o.Kind)
	}
}

func (m *Machine) call(c *callPlan) (value.Value, error) {
	f, ok := m.funcs[c.Fn]
	if !ok {
		return value.Value{}, fmt.Errorf("rdl: unknown function %s", c.Fn)
	}
	args := make([]value.Value, len(c.Args))
	for i, a := range c.Args {
		v, err := m.operand(a)
		if err != nil {
			return value.Value{}, err
		}
		args[i] = v
	}
	return f.Fn(args)
}

// cmp mirrors the interpreter's compare: evaluate both sides, bind a
// single unbound register under '=', give set literals the opposite
// side's universe, then apply the operator.
func (m *Machine) cmp(in *Instr) (bool, error) {
	lv, lerr := m.operand(in.L)
	rv, rerr := m.operand(in.R)

	if in.Cmp == CmpEq {
		if lerr != nil && rerr == nil && in.L.Kind == oReg && !m.bound[in.L.Idx] {
			m.bind(in.L.Idx, rv)
			return true, nil
		}
		if rerr != nil && lerr == nil && in.R.Kind == oReg && !m.bound[in.R.Idx] {
			m.bind(in.R.Idx, lv)
			return true, nil
		}
	}
	if lerr != nil && rerr == nil && in.L.Kind == oSetLit && rv.T.Kind == value.KindSet {
		v, err := value.Set(rv.T.Universe, m.p.SetLits[in.L.Idx])
		if err != nil {
			return false, err
		}
		lv, lerr = v, nil
	}
	if rerr != nil && lerr == nil && in.R.Kind == oSetLit && lv.T.Kind == value.KindSet {
		v, err := value.Set(lv.T.Universe, m.p.SetLits[in.R.Idx])
		if err != nil {
			return false, err
		}
		rv, rerr = v, nil
	}
	if lerr != nil {
		return false, lerr
	}
	if rerr != nil {
		return false, rerr
	}

	switch in.Cmp {
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

// capture records a starred condition, preferring the efficiently
// monitorable group-test form and falling back to a generic capture
// with the instantiated environment — the same shape record() emits.
func (m *Machine) capture(in *Instr) {
	if in.CapGroup {
		if mv, err := m.operand(in.L); err == nil {
			m.conds = append(m.conds, MembershipCond{
				IsGroupTest: true, Member: mv, Group: in.Grp, Neg: in.Neg,
			})
			return
		}
	}
	m.conds = append(m.conds, MembershipCond{Expr: in.Capture, Env: m.snapshotEnv()})
}

// Disassemble renders the program's plans in a stable textual form for
// rdlcheck -dump-plan and the docs.
func (p *Program) Disassemble() string {
	var b strings.Builder
	for i := range p.Rules {
		cr := &p.Rules[i]
		fmt.Fprintf(&b, "rule %d: %s\n", cr.Index+1, cr.Rule.String())
		if cr.Elector != nil {
			b.WriteString("  election-form: applies only to an entry presenting its delegation\n")
		}
		fmt.Fprintf(&b, "  regs: %s\n", regList(cr.Regs))
		fmt.Fprintf(&b, "  head: %s\n", p.refPlanString(&cr.Head))
		for ci := range cr.Cands {
			fmt.Fprintf(&b, "  cand %d: %s\n", ci, p.refPlanString(&cr.Cands[ci]))
		}
		if cr.Elector != nil {
			fmt.Fprintf(&b, "  elector: %s\n", p.refPlanString(cr.Elector))
		}
		if cr.Code == nil {
			b.WriteString("  code: (none — no-VM fast path)\n")
			continue
		}
		b.WriteString("  code:\n")
		for pc := range cr.Code {
			fmt.Fprintf(&b, "    %2d  %s\n", pc, p.instrString(&cr.Code[pc]))
		}
	}
	b.WriteString("dispatch:\n")
	for _, role := range p.Rolefile.Roles() {
		if idxs, ok := p.ByHead[role]; ok {
			fmt.Fprintf(&b, "  %s -> rules %v\n", role, ruleNumbers(idxs))
		}
	}
	return b.String()
}

func ruleNumbers(idxs []int) []int {
	out := make([]int, len(idxs))
	for i, x := range idxs {
		out[i] = x + 1
	}
	return out
}

func regList(regs []string) string {
	parts := make([]string, len(regs))
	for i, n := range regs {
		parts[i] = "r" + strconv.Itoa(i) + "=" + n
	}
	return strings.Join(parts, " ")
}

func (p *Program) refPlanString(ref *RefPlan) string {
	var b strings.Builder
	b.WriteString(ref.Service)
	if ref.Service != "" {
		b.WriteByte('.')
	}
	if ref.Rolefile != "" {
		b.WriteString(ref.Rolefile)
		b.WriteByte('.')
	}
	b.WriteString(ref.Name)
	b.WriteByte('(')
	for i := range ref.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.slotString(&ref.Args[i]))
	}
	b.WriteByte(')')
	if ref.Starred {
		b.WriteByte('*')
	}
	return b.String()
}

func (p *Program) slotString(a *ArgSlot) string {
	switch {
	case a.Reg >= 0:
		return "r" + strconv.Itoa(int(a.Reg))
	case a.Const >= 0:
		return p.Consts[a.Const].String()
	default:
		return "!unresolved"
	}
}

func (p *Program) operandString(o operand) string {
	switch o.Kind {
	case oReg:
		return "r" + strconv.Itoa(int(o.Idx))
	case oConst:
		return p.Consts[o.Idx].String()
	case oCall:
		c := &p.Calls[o.Idx]
		parts := make([]string, len(c.Args))
		for i, a := range c.Args {
			parts[i] = p.operandString(a)
		}
		return c.Fn + "(" + strings.Join(parts, ",") + ")"
	case oSetLit:
		return "{" + p.SetLits[o.Idx] + "}"
	default:
		return "?"
	}
}

func (p *Program) instrString(in *Instr) string {
	switch in.Op {
	case OpNot:
		return "not"
	case OpJumpIfFalse:
		return fmt.Sprintf("jf   %d", in.A)
	case OpJumpIfTrue:
		return fmt.Sprintf("jt   %d", in.A)
	case OpGroupTest:
		op := "in"
		if in.Neg {
			op = "not-in"
		}
		return fmt.Sprintf("grp  %s %s %s", p.operandString(in.L), op, in.Grp)
	case OpCmp:
		return fmt.Sprintf("cmp  %s %s %s", p.operandString(in.L), in.Cmp, p.operandString(in.R))
	case OpBoolCall:
		return fmt.Sprintf("call %s", p.operandString(operand{Kind: oCall, Idx: in.A}))
	case OpStarCapture:
		if in.CapGroup {
			op := "in"
			if in.Neg {
				op = "not-in"
			}
			return fmt.Sprintf("star %s %s %s", p.operandString(in.L), op, in.Grp)
		}
		return fmt.Sprintf("star capture %s", in.Capture)
	default:
		return fmt.Sprintf("op%d", in.Op)
	}
}
