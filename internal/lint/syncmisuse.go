package lint

// syncmisuse flags two dropped pool errors:
//
//   - an ignored pool.Group.Submit / Fork error: on a cancelled group
//     the task is dropped without running, so the submitting branch
//     must propagate the error (or discard it with `_ =` plus a
//     reason) or it will wait on work that never happened;
//   - a pool.Run or pool.Map error discarded by a bare call or by `_`:
//     for jobs that cannot fail it only ever carries a job's panic, so
//     dropping it goes on from half-done work. pool.Ranges re-raises
//     the panic instead.
//
// Locks copied by value are go vet's copylocks check, and loop-variable
// captures in go statements are per-iteration under the module's
// go 1.22, so this analyzer covers only what vet cannot express.
//
// Unlike errdrop, this check covers _test.go files too — the tests are
// where fork-join patterns get copied from.

import (
	"fmt"
	"go/ast"
	"go/types"
)

// SyncMisuse returns the syncmisuse analyzer.
func SyncMisuse() *Analyzer {
	return &Analyzer{
		Name: "syncmisuse",
		Doc:  "flag ignored pool.Group.Submit/Fork errors and discarded pool.Run/Map errors",
		Run:  runSyncMisuse,
	}
}

func runSyncMisuse(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		out = append(out, droppedPoolErrors(p, f)...)
	}
	return out
}

func droppedPoolErrors(p *Package, f *ast.File) []Finding {
	var out []Finding
	ast.Inspect(f, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.ExprStmt:
			call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeOf(p, call)
			if isMethod(fn, "internal/pool", "Group", "Submit") || isMethod(fn, "internal/pool", "Group", "Fork") {
				out = append(out, Finding{Pos: stmt.Pos(), Message: fmt.Sprintf(
					"(%s).%s error ignored: a cancelled group drops the task without running it — propagate the error or discard it explicitly with `_ =` and a reason",
					"pool.Group", fn.Name())})
			}
			if isPoolFanOut(fn) {
				out = append(out, fanOutDropped(stmt, fn))
			}
		case *ast.AssignStmt:
			// The error is the last result of both Run and Map.
			id, ok := stmt.Lhs[len(stmt.Lhs)-1].(*ast.Ident)
			if !ok || id.Name != "_" || len(stmt.Rhs) != 1 {
				return true
			}
			if call, ok := ast.Unparen(stmt.Rhs[0]).(*ast.CallExpr); ok && isPoolFanOut(calleeOf(p, call)) {
				out = append(out, fanOutDropped(stmt, calleeOf(p, call)))
			}
		}
		return true
	})
	return out
}

// isPoolFanOut reports whether fn is pool.Run or pool.Map.
func isPoolFanOut(fn *types.Func) bool {
	return isPkgFunc(fn, "internal/pool", "Run") || isPkgFunc(fn, "internal/pool", "Map")
}

func fanOutDropped(stmt ast.Stmt, fn *types.Func) Finding {
	return Finding{Pos: stmt.Pos(), Message: fmt.Sprintf(
		"pool.%s error discarded: it carries a job's panic, and dropping it goes on from half-done work — handle it, or use pool.Ranges, which re-raises the panic",
		fn.Name())}
}
