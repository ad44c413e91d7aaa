package lint

// syncmisuse flags ignoring the error returned by pool.Group.Submit /
// Fork: on a cancelled group the task is dropped without running, so
// the submitting branch must propagate the error (or discard it with
// `_ =` plus a reason) or it will wait on work that never happened.
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
)

// SyncMisuse returns the syncmisuse analyzer.
func SyncMisuse() *Analyzer {
	return &Analyzer{
		Name: "syncmisuse",
		Doc:  "flag ignored pool.Group.Submit/Fork errors",
		Run:  runSyncMisuse,
	}
}

func runSyncMisuse(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		out = append(out, ignoredSubmits(p, f)...)
	}
	return out
}

func ignoredSubmits(p *Package, f *ast.File) []Finding {
	var out []Finding
	ast.Inspect(f, func(n ast.Node) bool {
		stmt, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
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
		return true
	})
	return out
}
