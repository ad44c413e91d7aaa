package lint

// lockheld flags blocking operations reachable between a mutex Lock
// and its Unlock. The admission path of the serving layer is a single
// mutex; one blocking call under it (a channel rendezvous, a slog
// line to a slow stderr pipe, file I/O) stalls every submitter and
// every health probe at once. The contract: critical sections compute
// and assign, they do not wait.
//
// The analysis is structural and intra-procedural, like obsbalance:
// each function body is scanned in source order, lock regions are
// tracked per receiver expression ("s.mu"), and a blocking operation
// whose position falls inside an open region is flagged.
//
//   - `mu.Lock()` / `mu.RLock()` opens a region for "mu";
//     `mu.Unlock()` / `mu.RUnlock()` closes it at its own position;
//     `defer mu.Unlock()` leaves it open to the end of the body
//     (the lock really is held until return).
//   - `mu.TryLock()` never opens a region.
//   - Blocking operations: channel send and receive (except as a
//     comm case of a `select` that has a `default`), `select` with no
//     default, sync.WaitGroup.Wait, pool.Group.Submit/Fork/Wait,
//     time.Sleep, every slog output method (plus the server's
//     logEvent wrapper), and a curated set of file/network I/O calls.
//   - sync.Cond.Wait is deliberately NOT blocking here: it releases
//     the very mutex being tracked while it sleeps — that is the
//     sanctioned way to wait under a lock.
//
//   - The body of every function or method whose name ends in
//     "Locked" is one held region: by convention its caller holds
//     the lock, so the helper may not block either.
//
// Calls into methods that themselves block are not traced
// (intra-procedural); name lock-requiring helpers "...Locked" so the
// rule above covers them. Non-test files only: this is a
// production-path contract.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockHeld returns the lockheld analyzer.
func LockHeld() *Analyzer {
	return &Analyzer{
		Name: "lockheld",
		Doc:  "flag blocking operations (channel ops, selects, Wait, I/O, slog) executed while a mutex is held",
		Run:  runLockHeld,
	}
}

func runLockHeld(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		if p.IsTestFile(f.Pos()) {
			continue
		}
		locked := map[*ast.BlockStmt]string{} // ...Locked bodies -> name
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && strings.HasSuffix(fd.Name.Name, "Locked") {
				locked[fd.Body] = fd.Name.Name
			}
		}
		for _, body := range funcBodies(f) {
			out = append(out, lockHeldBody(p, body, locked[body])...)
		}
	}
	return out
}

// lockRegion is one held interval of a mutex.
type lockRegion struct {
	held  string    // what is held, e.g. "s.mu is held (locked at line 3)"
	start token.Pos // position of the Lock call
	end   token.Pos // position of the Unlock, or body end for defer/none
}

// lockHeldBody scans one function body (not descending into nested
// function literals, which execute elsewhere) and reports blocking
// operations inside lock regions. lockedName, when non-empty, is the
// name of the "...Locked" function the body belongs to: the whole
// body is then held as well.
func lockHeldBody(p *Package, body *ast.BlockStmt, lockedName string) []Finding {
	regions := lockRegions(p, body)
	if lockedName != "" {
		regions = append(regions, lockRegion{
			held:  fmt.Sprintf("%s's caller holds its lock (a ...Locked function)", lockedName),
			start: body.Lbrace, end: body.End(),
		})
	}
	if len(regions) == 0 {
		return nil
	}

	// Sends/receives that are the comm clause of a select with a
	// default case are non-blocking by construction; receives inside
	// any select comm are subsumed by the select's own verdict.
	nonBlocking := map[ast.Node]bool{}
	inspectShallow(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, clause := range sel.Body.List {
			comm, ok := clause.(*ast.CommClause)
			if !ok || comm.Comm == nil {
				continue
			}
			nonBlocking[comm.Comm] = true
			if assign, ok := comm.Comm.(*ast.AssignStmt); ok && len(assign.Rhs) == 1 {
				nonBlocking[assign.Rhs[0]] = true
			}
			if expr, ok := comm.Comm.(*ast.ExprStmt); ok {
				nonBlocking[expr.X] = true
			}
		}
		return true
	})

	var out []Finding
	flag := func(pos token.Pos, desc string) {
		for _, r := range regions {
			if pos > r.start && pos < r.end {
				out = append(out, Finding{Pos: pos, Message: fmt.Sprintf(
					"%s while %s; blocking under a lock stalls every contender — shrink the critical section or move the operation after Unlock",
					desc, r.held)})
				return // one report per operation, innermost-first region
			}
		}
	}

	inspectShallow(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if !nonBlocking[n] {
				flag(n.Arrow, "channel send")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !nonBlocking[n] && !insideSelectComm(body, n) {
				flag(n.OpPos, "channel receive")
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				flag(n.Select, "select with no default case")
			}
		case *ast.CallExpr:
			if desc := blockingCallDesc(p, n); desc != "" {
				flag(n.Pos(), desc)
			}
		}
		return true
	})
	return out
}

// lockRegions collects the held intervals of every mutex expression
// in the body, in source order.
func lockRegions(p *Package, body *ast.BlockStmt) []lockRegion {
	var regions []lockRegion
	open := map[string][]int{} // key -> indices of regions still open
	inspectShallow(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, key := mutexOp(p, call)
		if name == "" {
			return true
		}
		deferred := inDefer(body, call)
		switch name {
		case "Lock", "RLock":
			if deferred {
				return true // deferred lock: runs at exit, opens nothing here
			}
			open[key] = append(open[key], len(regions))
			regions = append(regions, lockRegion{
				held:  fmt.Sprintf("%s is held (locked at line %d)", key, p.Fset.Position(call.Pos()).Line),
				start: call.Pos(), end: body.End(),
			})
		case "Unlock", "RUnlock":
			if deferred {
				return true // defer Unlock: the region stays open to body end
			}
			if idxs := open[key]; len(idxs) > 0 {
				regions[idxs[len(idxs)-1]].end = call.Pos()
				open[key] = idxs[:len(idxs)-1]
			}
		}
		return true
	})
	return regions
}

// mutexOp reports the lock-protocol method a call invokes on a
// sync.Mutex / sync.RWMutex ("" for anything else) and the receiver
// expression's text, the region key. TryLock/TryRLock return "" —
// they never hold on failure, so they open no region.
func mutexOp(p *Package, call *ast.CallExpr) (name, key string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, _ := p.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil || !pkgSuffixIs(fn, "sync") {
		return "", ""
	}
	recv := recvNameOf(fn)
	if recv != "Mutex" && recv != "RWMutex" {
		return "", ""
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return fn.Name(), exprText(p.Fset, sel.X)
	}
	return "", ""
}

// inDefer reports whether call is the immediate call of a defer
// statement in body.
func inDefer(body *ast.BlockStmt, call *ast.CallExpr) bool {
	found := false
	inspectShallow(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok && d.Call == call {
			found = true
		}
		return !found
	})
	return found
}

// insideSelectComm reports whether the receive expression sits inside
// a select comm clause (the select statement itself carries the
// blocking verdict there).
func insideSelectComm(body *ast.BlockStmt, e ast.Expr) bool {
	inside := false
	inspectShallow(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, clause := range sel.Body.List {
			if comm, ok := clause.(*ast.CommClause); ok && comm.Comm != nil && within(e.Pos(), comm.Comm) {
				inside = true
			}
		}
		return true
	})
	return inside
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if comm, ok := clause.(*ast.CommClause); ok && comm.Comm == nil {
			return true
		}
	}
	return false
}

// slogOutputMethods are the slog.Logger methods that emit a record
// (and therefore write to the handler's sink, usually a pipe).
var slogOutputMethods = map[string]bool{
	"Debug": true, "Info": true, "Warn": true, "Error": true,
	"DebugContext": true, "InfoContext": true, "WarnContext": true,
	"ErrorContext": true, "Log": true, "LogAttrs": true,
}

// blockingIOFuncs is the curated set of package-level functions that
// hit the filesystem or the network.
var blockingIOFuncs = map[string]map[string]bool{
	"os": {
		"Open": true, "OpenFile": true, "Create": true, "ReadFile": true,
		"WriteFile": true, "Remove": true, "RemoveAll": true, "Rename": true,
		"Mkdir": true, "MkdirAll": true, "ReadDir": true, "Stat": true,
	},
	"net":      {"Dial": true, "DialTimeout": true, "Listen": true},
	"net/http": {"Get": true, "Post": true, "PostForm": true, "Head": true},
	"io":       {"Copy": true, "CopyN": true, "ReadAll": true, "WriteString": true},
	"fmt":      {"Fprint": true, "Fprintf": true, "Fprintln": true},
	"time":     {"Sleep": true},
}

// blockingCallDesc classifies a call as blocking, returning a
// description for the diagnostic ("" when the call is not in the
// blocking set).
func blockingCallDesc(p *Package, call *ast.CallExpr) string {
	fn := calleeOf(p, call)
	if fn == nil {
		return ""
	}
	switch {
	case isMethod(fn, "sync", "WaitGroup", "Wait"):
		return "(sync.WaitGroup).Wait"
	case isMethod(fn, "internal/pool", "Group", "Submit"),
		isMethod(fn, "internal/pool", "Group", "Fork"),
		isMethod(fn, "internal/pool", "Group", "Wait"):
		return "(pool.Group)." + fn.Name()
	case isMethod(fn, "internal/server", "Server", "logEvent"):
		return "(server.Server).logEvent (a slog write)"
	case recvNameOf(fn) == "Logger" && pkgSuffixIs(fn, "log/slog") && slogOutputMethods[fn.Name()]:
		return "(slog.Logger)." + fn.Name()
	case recvNameOf(fn) == "" && pkgSuffixIs(fn, "log/slog") && slogOutputMethods[fn.Name()]:
		return "slog." + fn.Name()
	case isMethod(fn, "net/http", "Client", "Do"),
		isMethod(fn, "net/http", "Client", "Get"),
		isMethod(fn, "net/http", "Client", "Post"),
		isMethod(fn, "net/http", "Client", "PostForm"):
		return "(http.Client)." + fn.Name()
	}
	if recvNameOf(fn) == "" && fn.Pkg() != nil {
		if set, ok := blockingIOFuncs[fn.Pkg().Path()]; ok && set[fn.Name()] {
			return fn.Pkg().Name() + "." + fn.Name()
		}
	}
	return ""
}
