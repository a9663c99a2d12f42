package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// forbiddenCall is one rule of the form "this package's functions may
// not be called here".
type forbiddenCall struct {
	code   string
	pkg    string          // import path of the package
	funcs  map[string]bool // the functions forbidden; nil forbids all
	exempt string          // module-relative package allowed to call them
	advice string
}

var forbiddenCalls = []forbiddenCall{
	// L002: a typed atomic (atomic.Int64, atomic.Pointer, ...) cannot
	// also be read or written plainly, so the mix that races cannot be
	// written; a field handed by address to an atomic function can.
	{code: "L002", pkg: "sync/atomic",
		advice: ": use a typed atomic (atomic.Int64, atomic.Pointer, ...), which cannot also be accessed plainly"},
	// L004: virtual time must flow through clock.Clock so simulations
	// and tests stay deterministic.
	{code: "L004", pkg: "time", exempt: "/internal/clock",
		funcs: map[string]bool{
			"Now": true, "Since": true, "Until": true, "After": true,
			"AfterFunc": true, "Tick": true, "NewTimer": true,
			"NewTicker": true, "Sleep": true,
		},
		advice: " outside internal/clock: take a clock.Clock instead (virtual time keeps simulations deterministic)"},
}

// lintForbiddenCalls reports L002 and L004: a package-level function of
// a package a rule forbids, named outside the package the rule exempts.
// Methods (time.Time.Since, atomic.Int64.Add) are not package functions
// and pass. Test files are not analyzed, so they are exempt by
// construction.
func lintForbiddenCalls(p *pkg, module string, report func(token.Pos, string, string)) {
	for _, file := range p.files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			for _, r := range forbiddenCalls {
				if fn.Pkg().Path() == r.pkg && (r.funcs == nil || r.funcs[fn.Name()]) &&
					(r.exempt == "" || p.path != module+r.exempt) {
					report(sel.Pos(), r.code, fn.Pkg().Name()+"."+fn.Name()+r.advice)
				}
			}
			return true
		})
	}
}
