package rdl

import (
	"fmt"
	"strconv"

	"oasis/internal/value"
)

// Parse parses rolefile source text into a File. Types are not resolved
// here; run Check on the result to perform inference and produce an
// executable Rolefile.
func Parse(src string) (*File, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.file()
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) peek() token { return p.toks[min(p.pos+1, len(p.toks)-1)] }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) accept(k tokKind) (token, bool) {
	if p.cur().kind == k {
		return p.advance(), true
	}
	return token{}, false
}

func (p *parser) expect(k tokKind) (token, error) {
	if t, ok := p.accept(k); ok {
		return t, nil
	}
	t := p.cur()
	return token{}, &SyntaxError{Line: t.line, Col: t.col,
		Msg: fmt.Sprintf("expected %v, found %v %q", k, t.kind, t.text)}
}

func (p *parser) errf(t token, format string, args ...any) error {
	return &SyntaxError{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) skipNewlines() {
	for p.cur().kind == tokNewline {
		p.advance()
	}
}

func (p *parser) file() (*File, error) {
	f := &File{}
	for {
		p.skipNewlines()
		if p.cur().kind == tokEOF {
			return f, nil
		}
		if err := p.statement(f); err != nil {
			return nil, err
		}
		if p.cur().kind != tokEOF {
			if _, err := p.expect(tokNewline); err != nil {
				return nil, err
			}
		}
	}
}

func (p *parser) statement(f *File) error {
	t := p.cur()
	if t.kind == tokIdent {
		switch t.text {
		case "def":
			return p.declStatement(f)
		case "import":
			return p.importStatement(f)
		}
	}
	return p.entryStatement(f)
}

// importStatement parses "import Service.typename".
func (p *parser) importStatement(f *File) error {
	p.advance() // import
	svc, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if _, err := p.expect(tokDot); err != nil {
		return err
	}
	typ, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	f.Imports = append(f.Imports, Import{Service: svc.text, Type: typ.text})
	return nil
}

// declStatement parses "def Role(a, b) a: type b: type".
func (p *parser) declStatement(f *File) error {
	kw := p.advance() // def
	name, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	d := &Decl{Role: name.text, Types: make(map[string]value.Type), Line: kw.line}
	if _, ok := p.accept(tokLParen); ok {
		for p.cur().kind != tokRParen {
			id, err := p.expect(tokIdent)
			if err != nil {
				return err
			}
			d.Params = append(d.Params, id.text)
			if _, ok := p.accept(tokComma); !ok {
				break
			}
		}
		if _, err := p.expect(tokRParen); err != nil {
			return err
		}
	}
	for p.cur().kind == tokIdent {
		id := p.advance()
		if _, err := p.expect(tokColon); err != nil {
			return err
		}
		typ, err := p.typeExpr()
		if err != nil {
			return err
		}
		found := false
		for _, prm := range d.Params {
			if prm == id.text {
				found = true
				break
			}
		}
		if !found {
			return p.errf(id, "type ascription for %q, which is not a parameter of %s", id.text, d.Role)
		}
		d.Types[id.text] = typ
	}
	f.Decls = append(f.Decls, d)
	return nil
}

// typeExpr parses "integer", "string", "{rwx}", "name" or "Svc.name".
func (p *parser) typeExpr() (value.Type, error) {
	t := p.cur()
	switch t.kind {
	case tokSet:
		p.advance()
		return value.SetType(t.text), nil
	case tokIdent:
		p.advance()
		switch t.text {
		case "integer", "Integer", "int":
			return value.IntType, nil
		case "string", "String":
			return value.StringType, nil
		}
		name := t.text
		if _, ok := p.accept(tokDot); ok {
			sub, err := p.expect(tokIdent)
			if err != nil {
				return value.Type{}, err
			}
			name = name + "." + sub.text
		}
		return value.ObjectType(name), nil
	default:
		return value.Type{}, p.errf(t, "expected a type, found %v %q", t.kind, t.text)
	}
}

// entryStatement parses a role entry statement.
func (p *parser) entryStatement(f *File) error {
	head, err := p.roleRef()
	if err != nil {
		return err
	}
	if head.Service != "" || head.Rolefile != "" {
		return p.errf(p.cur(), "role being defined must be local, got %s", head.Qualified())
	}
	if head.Starred {
		return p.errf(p.cur(), "the role being defined cannot carry a membership-rule star")
	}
	arrow, err := p.expect(tokArrow)
	if err != nil {
		return err
	}
	r := &Rule{Head: head, Line: arrow.line}

	// Candidate role references, '&'-separated; may be empty (an
	// unchecked claim, like the paper's Visitor login).
	if p.cur().kind == tokIdent {
		for {
			ref, err := p.roleRef()
			if err != nil {
				return err
			}
			r.Candidates = append(r.Candidates, ref)
			if _, ok := p.accept(tokAmp); !ok {
				break
			}
		}
	}
	if _, ok := p.accept(tokElect); ok {
		if _, star := p.accept(tokStar); star {
			r.ElectStarred = true
		}
		ref, err := p.roleRef()
		if err != nil {
			return err
		}
		r.Elector = &ref
	}
	if _, ok := p.accept(tokRevoke); ok {
		if _, star := p.accept(tokStar); star {
			r.RevokeStar = true
		}
		ref, err := p.roleRef()
		if err != nil {
			return err
		}
		r.Revoker = &ref
	}
	if _, ok := p.accept(tokColon); ok {
		e, err := p.orExpr()
		if err != nil {
			return err
		}
		r.Constraint = e
	}
	f.Rules = append(f.Rules, r)
	return nil
}

// roleRef parses [Svc '.' [Rolefile '.']] Name ['(' terms ')'] ['*'].
func (p *parser) roleRef() (RoleRef, error) {
	first, err := p.expect(tokIdent)
	if err != nil {
		return RoleRef{}, err
	}
	ref := RoleRef{Name: first.text, Line: first.line}
	if _, ok := p.accept(tokDot); ok {
		second, err := p.expect(tokIdent)
		if err != nil {
			return RoleRef{}, err
		}
		ref.Service = first.text
		ref.Name = second.text
		if _, ok := p.accept(tokDot); ok {
			third, err := p.expect(tokIdent)
			if err != nil {
				return RoleRef{}, err
			}
			ref.Rolefile = ref.Name
			ref.Name = third.text
		}
	}
	if _, ok := p.accept(tokLParen); ok {
		for p.cur().kind != tokRParen {
			t, err := p.term()
			if err != nil {
				return RoleRef{}, err
			}
			ref.Args = append(ref.Args, t)
			if _, ok := p.accept(tokComma); !ok {
				break
			}
		}
		if _, err := p.expect(tokRParen); err != nil {
			return RoleRef{}, err
		}
	}
	if _, ok := p.accept(tokStar); ok {
		ref.Starred = true
	}
	return ref, nil
}

// term parses a variable or literal.
func (p *parser) term() (Term, error) {
	t := p.cur()
	switch t.kind {
	case tokIdent:
		p.advance()
		return Term{Var: t.text, Line: t.line}, nil
	case tokNumber:
		p.advance()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return Term{}, p.errf(t, "bad integer literal %q", t.text)
		}
		return Term{IsInt: true, IntLit: n, Line: t.line}, nil
	case tokString:
		p.advance()
		return Term{IsStr: true, StrLit: t.text, Line: t.line}, nil
	case tokSet:
		p.advance()
		return Term{IsSet: true, SetLit: t.text, Line: t.line}, nil
	default:
		return Term{}, p.errf(t, "expected an argument, found %v %q", t.kind, t.text)
	}
}

// Constraint grammar (figure 3.3), with 'and' binding tighter than 'or'
// and an optional '*' membership-rule annotation on parenthesised
// sub-expressions and atoms.

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokIdent && p.cur().text == "or" {
		p.advance()
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = OrExpr{L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for (p.cur().kind == tokIdent && p.cur().text == "and") || p.cur().kind == tokAmp {
		p.advance()
		r, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		l = AndExpr{L: l, R: r}
	}
	return l, nil
}

func (p *parser) unaryExpr() (Expr, error) {
	if p.cur().kind == tokIdent && p.cur().text == "not" && p.peek().kind == tokLParen {
		p.advance()
		e, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return NotExpr{E: e}, nil
	}
	return p.primaryExpr()
}

func (p *parser) primaryExpr() (Expr, error) {
	if _, ok := p.accept(tokLParen); ok {
		e, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		if _, ok := p.accept(tokStar); ok {
			return StarExpr{E: e}, nil
		}
		return e, nil
	}
	return p.atomExpr()
}

// atomExpr parses an in-test, a comparison or a boolean call, with an
// optional trailing star.
func (p *parser) atomExpr() (Expr, error) {
	l, err := p.operand()
	if err != nil {
		return nil, err
	}
	var e Expr
	t := p.cur()
	switch {
	case t.kind == tokIdent && (t.text == "in" || t.text == "not"):
		neg := false
		if t.text == "not" {
			p.advance()
			if n, err := p.expect(tokIdent); err != nil || n.text != "in" {
				return nil, p.errf(t, "expected 'in' after 'not'")
			}
			neg = true
		} else {
			p.advance()
		}
		grp, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if l.Term != nil {
			e = InExpr{T: *l.Term, Group: grp.text, Neg: neg}
		} else {
			e = InExpr{Call: l.Call, Group: grp.text, Neg: neg}
		}
	case t.kind == tokEq || t.kind == tokNeq || t.kind == tokLt ||
		t.kind == tokLe || t.kind == tokGt || t.kind == tokGe:
		p.advance()
		r, err := p.operand()
		if err != nil {
			return nil, err
		}
		e = CmpExpr{Op: cmpOpOf(t.kind), L: l, R: r}
	default:
		if l.Call == nil {
			return nil, p.errf(t, "expected a comparison, 'in' test or boolean call")
		}
		e = CallExpr{Call: l.Call}
	}
	if _, ok := p.accept(tokStar); ok {
		return StarExpr{E: e}, nil
	}
	return e, nil
}

func cmpOpOf(k tokKind) CmpOp {
	switch k {
	case tokEq:
		return CmpEq
	case tokNeq:
		return CmpNeq
	case tokLt:
		return CmpLt
	case tokLe:
		return CmpLe
	case tokGt:
		return CmpGt
	default:
		return CmpGe
	}
}

// operand parses a term or a function call.
func (p *parser) operand() (Operand, error) {
	t := p.cur()
	if t.kind == tokIdent && p.peek().kind == tokLParen {
		p.advance()
		p.advance() // (
		call := &Call{Fn: t.text, Line: t.line}
		for p.cur().kind != tokRParen {
			a, err := p.operand()
			if err != nil {
				return Operand{}, err
			}
			call.Args = append(call.Args, a)
			if _, ok := p.accept(tokComma); !ok {
				break
			}
		}
		if _, err := p.expect(tokRParen); err != nil {
			return Operand{}, err
		}
		return Operand{Call: call}, nil
	}
	tm, err := p.term()
	if err != nil {
		return Operand{}, err
	}
	return Operand{Term: &tm}, nil
}
