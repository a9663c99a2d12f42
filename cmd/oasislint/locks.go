package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// lintLockAcrossSend reports L003: a channel send, a call into the
// notification plane (bus.Network Flush/EndBatch/StartBatch), or a
// synchronous peer call (bus.Network.Call), reached while a sync lock is
// held. Every lock in this repository is a leaf (see DESIGN.md): holding
// one across a send or a bus delivery can deadlock against an endpoint
// that re-enters the service, and holding one across a call stalls every
// delivery that needs it on the link's read loop, which delivers inline,
// until the call's deadline.
//
// The walker is a conservative sequential interpreter: Lock/RLock adds
// the receiver to the held set, Unlock/RUnlock removes it, a deferred
// unlock keeps it held to the end of the function. A send on a channel
// created locally in the same function is exempt — nothing else can be
// blocked on it yet (clock.Virtual.After relies on this).
func lintLockAcrossSend(p *pkg, report func(token.Pos, string, string)) {
	for _, file := range p.files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				if x.Body != nil {
					newLockWalker(p, report).block(x.Body)
				}
				return false // nested FuncLits are walked fresh inside
			}
			return true
		})
	}
}

type lockWalker struct {
	p      *pkg
	report func(token.Pos, string, string)
	held   map[string]bool       // rendered lock receiver -> held
	locals map[types.Object]bool // channels made in this function
}

func newLockWalker(p *pkg, report func(token.Pos, string, string)) *lockWalker {
	return &lockWalker{p: p, report: report, held: make(map[string]bool), locals: make(map[types.Object]bool)}
}

func (w *lockWalker) clone() *lockWalker {
	c := newLockWalker(w.p, w.report)
	for k := range w.held {
		c.held[k] = true
	}
	for k := range w.locals {
		c.locals[k] = true
	}
	return c
}

// absorb unions another walker's end state into this one.
func (w *lockWalker) absorb(o *lockWalker) {
	for k := range o.held {
		w.held[k] = true
	}
}

func (w *lockWalker) holding() string {
	var names []string
	for k := range w.held {
		names = append(names, k)
	}
	return strings.Join(names, ", ")
}

func (w *lockWalker) block(b *ast.BlockStmt) {
	for _, s := range b.List {
		w.stmt(s)
	}
}

func (w *lockWalker) stmt(s ast.Stmt) {
	switch x := s.(type) {
	case nil:
	case *ast.BlockStmt:
		w.block(x)
	case *ast.ExprStmt:
		w.expr(x.X)
	case *ast.AssignStmt:
		for i, rhs := range x.Rhs {
			w.expr(rhs)
			if call, ok := rhs.(*ast.CallExpr); ok && i < len(x.Lhs) {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "make" {
					if tv, ok := w.p.info.Types[rhs]; ok {
						if _, isChan := types.Unalias(tv.Type).(*types.Chan); isChan {
							if lhs, ok := x.Lhs[i].(*ast.Ident); ok {
								if obj := w.p.info.Defs[lhs]; obj != nil {
									w.locals[obj] = true
								}
							}
						}
					}
				}
			}
		}
	case *ast.SendStmt:
		w.expr(x.Value)
		if len(w.held) == 0 {
			return
		}
		if id, ok := x.Chan.(*ast.Ident); ok {
			if obj := w.p.info.Uses[id]; obj != nil && w.locals[obj] {
				return // function-local channel: no receiver can hold our locks
			}
		}
		w.report(x.Arrow, "L003",
			"channel send while holding "+w.holding()+" (locks are leaves; release before sending)")
	case *ast.DeferStmt:
		// A deferred unlock runs at return: the lock stays held for the
		// rest of the body, which is exactly what we must track, so a
		// deferred Unlock does NOT clear the held set. A deferred Lock
		// (unusual) is ignored. Other deferred calls are walked for
		// their FuncLit bodies only.
		if sel, ok := x.Call.Fun.(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Unlock", "RUnlock", "Lock", "RLock":
				return
			}
		}
		for _, arg := range x.Call.Args {
			w.expr(arg)
		}
		if fl, ok := x.Call.Fun.(*ast.FuncLit); ok {
			newLockWalker(w.p, w.report).block(fl.Body)
		}
	case *ast.GoStmt:
		for _, arg := range x.Call.Args {
			w.expr(arg)
		}
		if fl, ok := x.Call.Fun.(*ast.FuncLit); ok {
			newLockWalker(w.p, w.report).block(fl.Body)
		}
	case *ast.IfStmt:
		w.stmt(x.Init)
		w.expr(x.Cond)
		body := w.clone()
		body.block(x.Body)
		var alt *lockWalker
		if x.Else != nil {
			alt = w.clone()
			alt.stmt(x.Else)
		}
		// Branches that cannot fall through (return/break/continue at
		// the end) do not contribute to the state after the statement.
		if !terminal(x.Body) {
			w.absorb(body)
		}
		if alt != nil {
			if es, ok := x.Else.(*ast.BlockStmt); !ok || !terminal(es) {
				w.absorb(alt)
			}
		}
	case *ast.ForStmt:
		w.stmt(x.Init)
		w.expr(x.Cond)
		body := w.clone()
		body.block(x.Body)
		body.stmt(x.Post)
		w.absorb(body)
	case *ast.RangeStmt:
		w.expr(x.X)
		body := w.clone()
		body.block(x.Body)
		w.absorb(body)
	case *ast.SwitchStmt:
		w.stmt(x.Init)
		w.expr(x.Tag)
		for _, c := range x.Body.List {
			cl := w.clone()
			for _, s := range c.(*ast.CaseClause).Body {
				cl.stmt(s)
			}
			w.absorb(cl)
		}
	case *ast.TypeSwitchStmt:
		w.stmt(x.Init)
		for _, c := range x.Body.List {
			cl := w.clone()
			for _, s := range c.(*ast.CaseClause).Body {
				cl.stmt(s)
			}
			w.absorb(cl)
		}
	case *ast.SelectStmt:
		for _, c := range x.Body.List {
			comm := c.(*ast.CommClause)
			cl := w.clone()
			cl.stmt(comm.Comm)
			for _, s := range comm.Body {
				cl.stmt(s)
			}
			w.absorb(cl)
		}
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			w.expr(r)
		}
	case *ast.LabeledStmt:
		w.stmt(x.Stmt)
	case *ast.IncDecStmt:
		w.expr(x.X)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
				}
			}
		}
	}
}

// expr walks an expression, applying Lock/Unlock effects and flagging
// bus-plane calls made under a lock. FuncLit bodies start fresh.
func (w *lockWalker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			newLockWalker(w.p, w.report).block(x.Body)
			return false
		case *ast.CallExpr:
			w.call(x)
			return true
		}
		return true
	})
}

func (w *lockWalker) call(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := w.p.info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	recv := types.ExprString(sel.X)
	switch sel.Sel.Name {
	case "Lock", "RLock":
		if onSyncLock(fn) {
			w.held[recv] = true
		}
	case "Unlock", "RUnlock":
		if onSyncLock(fn) {
			delete(w.held, recv)
		}
	case "Flush", "EndBatch", "StartBatch", "Call":
		if len(w.held) > 0 && onBusNetwork(fn) {
			w.report(call.Pos(), "L003",
				"bus "+sel.Sel.Name+" while holding "+w.holding()+
					" (a delivery it starts or waits behind may need it; release first)")
		}
	}
}

// onSyncLock reports whether the method belongs to sync.Mutex or
// sync.RWMutex (directly or promoted through embedding).
func onSyncLock(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	if n.Obj().Pkg().Path() != "sync" {
		return false
	}
	name := n.Obj().Name()
	return name == "Mutex" || name == "RWMutex"
}

// onBusNetwork reports whether the method's receiver is the bus
// network type — the notification plane whose deliveries can re-enter
// services.
func onBusNetwork(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return strings.HasSuffix(n.Obj().Pkg().Path(), "internal/bus") && n.Obj().Name() == "Network"
}

// terminal reports whether a block always transfers control away at
// its end (return, branch, or panic), so execution cannot fall through.
func terminal(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminal(last)
	}
	return false
}
