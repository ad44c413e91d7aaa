package lint

// detrand enforces the sanctioned-randomness rule of the determinism
// contract (DESIGN.md §9): inside the determinism-critical packages —
// the ones whose outputs must be byte-identical across runs, worker
// counts, and resume boundaries — the only source of randomness is a
// seeded *rand.Rand threaded through options, and wall-clock time
// never feeds an algorithm. Concretely it forbids, in those packages:
//
//   - the global top-level math/rand (and math/rand/v2) convenience
//     functions (rand.Intn, rand.Shuffle, rand.Seed, ...), whose
//     process-global source makes output depend on call interleaving;
//   - rand.New with no arguments (math/rand/v2's auto-seeded form);
//   - time.Now and time.Since, which smuggle the wall clock in.
//
// Timing-only uses (phase durations that never influence results) are
// annotated at the call site with //lint:ignore detrand <reason>.

import (
	"fmt"
	"go/ast"
)

// detRandCritical is the set of determinism-critical package names:
// everything on the partition→tree→measurement path whose output the
// paper comparison depends on. External test packages ("partition_test")
// are covered via Package.BaseName.
var detRandCritical = map[string]bool{
	"partition": true,
	"rcb":       true,
	"dtree":     true,
	"matching":  true,
	"mlrcb":     true,
	"meshgen":   true,
	"sim":       true,
	"graph":     true,
	"sfc":       true,
	"bkmeans":   true,
}

// detRandGlobals are the math/rand (v1 and v2) top-level functions
// backed by the process-global source.
var detRandGlobals = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	// math/rand/v2 spellings.
	"N": true, "IntN": true, "Int32N": true, "Int64N": true,
	"UintN": true, "Uint32N": true, "Uint64N": true,
}

// DetRand returns the detrand analyzer.
func DetRand() *Analyzer {
	return &Analyzer{
		Name: "detrand",
		Doc:  "forbid global math/rand and wall-clock time in determinism-critical packages",
		Run:  runDetRand,
	}
}

func runDetRand(p *Package) []Finding {
	if !detRandCritical[p.BaseName()] {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg := importedPkgOf(p, sel.X)
			if pkg == nil {
				return true
			}
			switch pkg.Path() {
			case "math/rand", "math/rand/v2":
				if detRandGlobals[sel.Sel.Name] {
					out = append(out, Finding{Pos: sel.Pos(), Message: fmt.Sprintf(
						"%s.%s uses the process-global random source; thread a seeded *rand.Rand through options instead",
						pkg.Name(), sel.Sel.Name)})
				}
			case "time":
				if sel.Sel.Name == "Now" || sel.Sel.Name == "Since" {
					out = append(out, Finding{Pos: sel.Pos(), Message: fmt.Sprintf(
						"time.%s reads the wall clock inside determinism-critical package %q; results must not depend on time",
						sel.Sel.Name, p.BaseName())})
				}
			}
			return true
		})
		// rand.New() with no arguments (math/rand/v2 auto-seeds it):
		// a fresh unseeded generator is as nondeterministic as the
		// global one.
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "New" || len(call.Args) != 0 {
				return true
			}
			if pkg := importedPkgOf(p, sel.X); pkg != nil &&
				(pkg.Path() == "math/rand" || pkg.Path() == "math/rand/v2") {
				out = append(out, Finding{Pos: call.Pos(), Message: "rand.New with no explicit Source is auto-seeded and nondeterministic; construct it from a seed carried in options"})
			}
			return true
		})
	}
	return out
}
