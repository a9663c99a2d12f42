package rdl

import (
	"fmt"
	"strconv"
	"strings"

	"oasis/internal/value"
)

// File is a parsed rolefile: declarations, imports and role entry rules,
// in source order (order matters — the first matching rule wins, §3.2.2).
type File struct {
	Imports []Import
	Decls   []*Decl
	Rules   []*Rule
}

// Import brings an object type defined by another service into scope
// (§3.2.1), e.g. "import Login.userid".
type Import struct {
	Service string
	Type    string
}

// Decl is a role declaration statement: "def Role(a, b) a: integer".
// Types omitted here must be inferrable (§3.2.1).
type Decl struct {
	Role   string
	Params []string
	Types  map[string]value.Type // by parameter name; may be partial
	Line   int
}

// Term is an argument of a role reference or an operand of a constraint:
// a variable, or a literal whose concrete type is resolved against the
// expected argument type during checking (a string literal names an
// object identifier when an object type is expected, and a set literal
// takes its universe from the expected set type).
type Term struct {
	Var string

	IsInt  bool
	IntLit int64
	IsStr  bool
	StrLit string
	IsSet  bool
	SetLit string

	Line int
}

// String renders the term in surface syntax.
func (t Term) String() string {
	switch {
	case t.Var != "":
		return t.Var
	case t.IsInt:
		return strconv.FormatInt(t.IntLit, 10)
	case t.IsStr:
		return strconv.Quote(t.StrLit)
	case t.IsSet:
		return "{" + t.SetLit + "}"
	default:
		return "<term>"
	}
}

// RoleRef references a role: optionally service-qualified, optionally
// naming a rolefile within the service (§3.2.2), with argument terms.
// Starred marks it as a membership rule (§3.2.3).
type RoleRef struct {
	Service  string // "" = the defining service
	Rolefile string // "" = default rolefile of that service
	Name     string
	Args     []Term
	Starred  bool
	Line     int
}

// Local reports whether the reference is to a role in the same rolefile.
func (r RoleRef) Local() bool { return r.Service == "" }

// Qualified renders Service.Rolefile.Name without arguments.
func (r RoleRef) Qualified() string {
	var b strings.Builder
	if r.Service != "" {
		b.WriteString(r.Service)
		b.WriteByte('.')
	}
	if r.Rolefile != "" {
		b.WriteString(r.Rolefile)
		b.WriteByte('.')
	}
	b.WriteString(r.Name)
	return b.String()
}

// String renders the reference with arguments and star.
func (r RoleRef) String() string {
	var b strings.Builder
	b.WriteString(r.Qualified())
	if len(r.Args) > 0 {
		b.WriteByte('(')
		for i, a := range r.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(a.String())
		}
		b.WriteByte(')')
	}
	if r.Starred {
		b.WriteByte('*')
	}
	return b.String()
}

// Rule is a role entry statement. With Elector nil it is the standard
// form; with Elector set it is the election form (§3.2.2); Revoker, if
// set, is the role-based revocation extension (§3.3.2).
type Rule struct {
	Head         RoleRef
	Candidates   []RoleRef
	Elector      *RoleRef
	ElectStarred bool // star on the <| operator: the delegation itself is revocable
	Revoker      *RoleRef
	RevokeStar   bool
	Constraint   Expr // nil when absent
	Line         int
}

// String renders the rule.
func (r Rule) String() string {
	var b strings.Builder
	b.WriteString(r.Head.String())
	b.WriteString(" <- ")
	for i, c := range r.Candidates {
		if i > 0 {
			b.WriteString(" & ")
		}
		b.WriteString(c.String())
	}
	if r.Elector != nil {
		b.WriteString(" <|")
		if r.ElectStarred {
			b.WriteByte('*')
		}
		b.WriteByte(' ')
		b.WriteString(r.Elector.String())
	}
	if r.Revoker != nil {
		b.WriteString(" |>")
		if r.RevokeStar {
			b.WriteByte('*')
		}
		b.WriteByte(' ')
		b.WriteString(r.Revoker.String())
	}
	if r.Constraint != nil {
		b.WriteString(" : ")
		b.WriteString(r.Constraint.String())
	}
	return b.String()
}

// Expr is a constraint expression (figure 3.3).
type Expr interface {
	fmt.Stringer
	isExpr()
}

// AndExpr is L and R.
type AndExpr struct{ L, R Expr }

// OrExpr is L or R.
type OrExpr struct{ L, R Expr }

// NotExpr is not E.
type NotExpr struct{ E Expr }

// StarExpr marks E as a membership rule (§3.2.4): its truth must persist
// for the lifetime of the issued certificate.
type StarExpr struct{ E Expr }

// InExpr tests group membership of a term or of a server-specific
// function's result: "u in staff", "owner(b) not in students".
type InExpr struct {
	T     Term  // used when Call is nil
	Call  *Call // non-nil for a call on the left
	Group string
	Neg   bool
}

// CmpOp enumerates comparison operators.
type CmpOp int

// Comparison operators. For sets, Le is the subset test.
const (
	CmpEq CmpOp = iota + 1
	CmpNeq
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

func (o CmpOp) String() string {
	switch o {
	case CmpEq:
		return "="
	case CmpNeq:
		return "!="
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	default:
		return "?"
	}
}

// CmpExpr compares two operands. "v = f(...)" with v unbound binds v
// (used by the ACL extension of §3.3.3).
type CmpExpr struct {
	Op   CmpOp
	L, R Operand
}

// CallExpr is a boolean server-specific function used as a condition
// (§3.3.1), e.g. InDir(f, d).
type CallExpr struct{ Call *Call }

// Operand is a term or a server-specific function call.
type Operand struct {
	Term *Term
	Call *Call
}

// String renders the operand.
func (o Operand) String() string {
	if o.Call != nil {
		return o.Call.String()
	}
	return o.Term.String()
}

// Call invokes a server-specific function over operands.
type Call struct {
	Fn   string
	Args []Operand
	Line int
}

// String renders the call.
func (c Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Fn + "(" + strings.Join(parts, ",") + ")"
}

func (AndExpr) isExpr()  {}
func (OrExpr) isExpr()   {}
func (NotExpr) isExpr()  {}
func (StarExpr) isExpr() {}
func (InExpr) isExpr()   {}
func (CmpExpr) isExpr()  {}
func (CallExpr) isExpr() {}

// String methods render expressions in surface syntax.
func (e AndExpr) String() string { return "(" + e.L.String() + " and " + e.R.String() + ")" }

func (e OrExpr) String() string { return "(" + e.L.String() + " or " + e.R.String() + ")" }

func (e NotExpr) String() string { return "not " + e.E.String() }

func (e StarExpr) String() string { return "(" + e.E.String() + ")*" }

func (e InExpr) String() string {
	lhs := e.T.String()
	if e.Call != nil {
		lhs = e.Call.String()
	}
	if e.Neg {
		return lhs + " not in " + e.Group
	}
	return lhs + " in " + e.Group
}

func (e CmpExpr) String() string {
	return e.L.String() + " " + e.Op.String() + " " + e.R.String()
}

func (e CallExpr) String() string { return e.Call.String() }
