package lint

// obsbalance enforces the start/end discipline of the observability
// layer: every obs.Collector.Phase and every span created by
// obs.StartSpan / Tracer.Root / Span.Child must reach a matching End.
// An un-Ended phase silently loses a sample from every report; an
// un-Ended span vanishes from the trace and breaks the B/E balance
// tracecheck relies on.
//
// The check is structural rather than fully path-sensitive:
//
//   - discarding the handle (expression statement, or assigning it
//     to _) is always a violation — nothing can ever end it;
//   - a handle held in a variable must be closed somewhere in the
//     enclosing function — a deferred close (directly or inside a
//     deferred closure) balances every path, while a plain close with
//     an intervening early `return` between start and close is
//     flagged as leaking on that path;
//   - handles that escape (returned, passed to another function,
//     stored in a field or composite) are assumed closed elsewhere.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// ObsBalance returns the obsbalance analyzer.
func ObsBalance() *Analyzer {
	return &Analyzer{
		Name: "obsbalance",
		Doc:  "every obs phase and span must be ended on all paths",
		Run:  runObsBalance,
	}
}

func runObsBalance(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		for _, body := range funcBodies(f) {
			out = append(out, obsBalanceInFunc(p, body)...)
		}
	}
	return out
}

// obsCreation is one phase/span creation bound to a variable, with
// the End obligation to discharge.
type obsCreation struct {
	pos  token.Pos
	what string // "obs phase \"x\"" or "span \"y\"" for messages
	obj  types.Object
}

func obsBalanceInFunc(p *Package, body *ast.BlockStmt) []Finding {
	var out []Finding
	var creations []obsCreation

	record := func(what string, lhs ast.Expr, pos token.Pos) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return // stored into a field/index: escapes, ended elsewhere
		}
		if id.Name == "_" {
			out = append(out, Finding{Pos: pos, Message: fmt.Sprintf("%s is assigned to _ and can never be ended", what)})
			return
		}
		obj := objOf(p, id)
		if obj == nil {
			return
		}
		creations = append(creations, obsCreation{pos: pos, what: what, obj: obj})
	}

	inspectShallow(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if what, ok := obsCreationCall(p, n.X); ok {
				out = append(out, Finding{Pos: n.Pos(), Message: fmt.Sprintf("%s is discarded; it can never be ended", what)})
			}
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 {
				if what, ok := obsCreationCall(p, n.Rhs[0]); ok {
					// ctx, span := obs.StartSpan(...) binds the handle
					// in the second slot.
					if lhs := len(n.Lhs); lhs <= 2 {
						record(what, n.Lhs[lhs-1], n.Rhs[0].Pos())
					}
				}
			}
		}
		return true
	})

	for _, c := range creations {
		out = append(out, checkObligation(p, body, c)...)
	}
	return out
}

// obsCreationCall recognizes expressions that open a phase or span
// and returns a label for messages. Its one two-result form,
// StartSpan, binds the span in the caller's second assignment slot.
func obsCreationCall(p *Package, e ast.Expr) (string, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	fn := calleeOf(p, call)
	if fn == nil {
		return "", false
	}
	label := func(kind string) string {
		if lit, ok := ast.Unparen(nameArgOf(fn, call)).(*ast.BasicLit); ok {
			return fmt.Sprintf("%s %s", kind, lit.Value)
		}
		return kind
	}
	switch {
	case isMethod(fn, "internal/obs", "Collector", "Phase"):
		return label("obs phase"), true
	case isPkgFunc(fn, "internal/obs", "StartSpan"),
		isMethod(fn, "internal/obs", "Tracer", "Root"),
		isMethod(fn, "internal/obs", "Span", "Child"):
		return label("span"), true
	}
	return "", false
}

// nameArgOf picks the argument holding the phase/span name: the
// second for StartSpan(ctx, name, ...) and Phase(parent, name, ...),
// the first otherwise.
func nameArgOf(fn *types.Func, call *ast.CallExpr) ast.Expr {
	if fn.Name() == "StartSpan" || fn.Name() == "Phase" {
		return call.Args[1]
	}
	return call.Args[0]
}

// checkObligation verifies that the handle bound in c is closed by a
// .End() call. Deferred closes
// (defer stmt or inside a deferred closure) balance all paths; a plain
// close is accepted unless an early return sits between the creation
// and the first close. Any other use of the handle counts as an
// escape and discharges the obligation.
func checkObligation(p *Package, body *ast.BlockStmt, c obsCreation) []Finding {
	deferredFns := deferredFuncLits(body)

	var plainClose, deferredClose, escaped bool
	firstPlain := token.NoPos

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if closesHandle(p, n.Call, c) {
				deferredClose = true
				return false
			}
		case *ast.CallExpr:
			if closesHandle(p, n, c) {
				if inDeferredLit(n.Pos(), deferredFns) {
					deferredClose = true
				} else {
					plainClose = true
					if firstPlain == token.NoPos || n.Pos() < firstPlain {
						firstPlain = n.Pos()
					}
				}
				return true
			}
		case *ast.Ident:
			if n.Pos() > c.pos && objOf(p, n) == c.obj && !identUseExempt(p, n, c) {
				escaped = true
			}
		}
		return true
	})

	if escaped || deferredClose {
		return nil
	}
	if !plainClose {
		return []Finding{{Pos: c.pos, Message: fmt.Sprintf("%s is never ended in this function", c.what)}}
	}
	// Plain close only: an early return between creation and close
	// leaks the handle on that path.
	var bad token.Pos
	inspectShallow(body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if ok && bad == token.NoPos && ret.Pos() > c.pos && ret.Pos() < firstPlain {
			bad = ret.Pos()
		}
		return true
	})
	if bad != token.NoPos {
		return []Finding{{Pos: bad, Message: fmt.Sprintf("return may skip closing %s started earlier; close it with defer", c.what)}}
	}
	return nil
}

// closesHandle reports whether call is `handle.End()` for the tracked
// object.
func closesHandle(p *Package, call *ast.CallExpr, c obsCreation) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && objOf(p, id) == c.obj
}

// identUseExempt reports whether this use of the handle cannot
// transfer the close obligation elsewhere: any method call with the
// handle in receiver position — its own `End()`, or `span.Event(...)`
// and `phase.Span()`, which record or read but do not end.
// Every other use — argument, return value, store — is an escape and
// the obligation is assumed discharged by the new owner.
func identUseExempt(p *Package, id *ast.Ident, c obsCreation) bool {
	path := nodePath(p, id)
	if len(path) < 2 {
		return false
	}
	parent := path[len(path)-2]
	if sel, ok := parent.(*ast.SelectorExpr); ok && sel.X == ast.Expr(id) && len(path) >= 3 {
		if call, ok := path[len(path)-3].(*ast.CallExpr); ok && call.Fun == ast.Expr(sel) {
			return true // method call on the handle
		}
	}
	return false
}

// nodePath returns the chain of enclosing nodes for the identifier
// within its file, outermost first and the identifier itself last.
func nodePath(p *Package, id *ast.Ident) []ast.Node {
	var file *ast.File
	for _, f := range p.Files {
		if within(id.Pos(), f) {
			file = f
			break
		}
	}
	if file == nil {
		return nil
	}
	var path []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil || !within(id.Pos(), n) {
			return false
		}
		path = append(path, n)
		return true
	})
	return path
}

// deferredFuncLits collects function literals invoked directly by a
// defer statement (`defer func(){ ... }()`): closes inside them run on
// every path, like a direct defer.
func deferredFuncLits(body *ast.BlockStmt) []*ast.FuncLit {
	var lits []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
			lits = append(lits, lit)
		}
		return true
	})
	return lits
}

func inDeferredLit(pos token.Pos, lits []*ast.FuncLit) bool {
	for _, lit := range lits {
		if within(pos, lit) {
			return true
		}
	}
	return false
}
