package lint

// errdrop flags expression-statement calls that discard a non-nil
// error result in non-test files: a silently dropped error from an
// encoder, a Flush, a Close on a written file, or a checkpoint write
// turns a hard failure into corrupted-but-plausible output.
//
// Allowlisted sinks, where ignoring the error is the established
// idiom and failure is either impossible or consciously best-effort:
//
//   - the fmt print family (fmt.Print*, fmt.Fprint* — stdout-style
//     human output is best-effort by design here; errors from the
//     underlying writer surface at Flush/Close, which are checked);
//   - methods on strings.Builder and bytes.Buffer, documented to
//     never return a non-nil error;
//   - the write methods of bufio.Writer (not Flush): its error is
//     sticky, so intermediate write errors resurface at Flush — which
//     this analyzer does require to be handled;
//   - pool.Group.Submit / Fork, pool.Run and pool.Map, which are owned
//     by the syncmisuse analyzer so one violation yields one diagnostic.
//
// Deliberate discards are written as `_ = f()` — visible in review —
// or carry //lint:ignore errdrop <reason>.

import (
	"fmt"
	"go/ast"
	"go/types"
)

// ErrDrop returns the errdrop analyzer.
func ErrDrop() *Analyzer {
	return &Analyzer{
		Name: "errdrop",
		Doc:  "flag expression statements that silently discard an error result",
		Run:  runErrDrop,
	}
}

func runErrDrop(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		if p.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
			if !ok || !callReturnsError(p, call) || errDropAllowed(p, call) {
				return true
			}
			out = append(out, Finding{Pos: stmt.Pos(), Message: fmt.Sprintf(
				"%s discards its error result; handle it, assign to _, or annotate with //lint:ignore errdrop <reason>",
				callName(p, call))})
			return true
		})
	}
	return out
}

// callReturnsError reports whether the call's results include an
// error.
func callReturnsError(p *Package, call *ast.CallExpr) bool {
	tv, ok := p.Info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(tv.Type)
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// errDropAllowed applies the allowlist.
func errDropAllowed(p *Package, call *ast.CallExpr) bool {
	fn := calleeOf(p, call)
	if fn == nil {
		return false
	}
	name := fn.Name()
	switch {
	case pkgSuffixIs(fn, "fmt") && (name == "Print" || name == "Printf" || name == "Println" ||
		name == "Fprint" || name == "Fprintf" || name == "Fprintln"):
		return true
	case recvNameOf(fn) == "Builder" && pkgSuffixIs(fn, "strings"):
		return true
	case recvNameOf(fn) == "Buffer" && pkgSuffixIs(fn, "bytes"):
		return true
	case recvNameOf(fn) == "Writer" && pkgSuffixIs(fn, "bufio") &&
		(name == "Write" || name == "WriteString" || name == "WriteByte" || name == "WriteRune"):
		return true
	case isMethod(fn, "internal/pool", "Group", "Submit"), isMethod(fn, "internal/pool", "Group", "Fork"), isPoolFanOut(fn):
		return true // syncmisuse owns these
	}
	return false
}

// callName renders a short name for the call ("json.NewEncoder(w).Encode").
func callName(p *Package, call *ast.CallExpr) string {
	if fn := calleeOf(p, call); fn != nil {
		if recv := recvNameOf(fn); recv != "" {
			return fmt.Sprintf("(%s).%s", recv, fn.Name())
		}
		if fn.Pkg() != nil {
			return fmt.Sprintf("%s.%s", fn.Pkg().Name(), fn.Name())
		}
		return fn.Name()
	}
	return "call"
}
