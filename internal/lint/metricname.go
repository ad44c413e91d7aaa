package lint

// metricname statically guarantees WritePrometheus family stability:
// every obs.Collector metric name (Phase/Observe/Add/Max/Hist) must
// be a constant prom-safe literal, and the exposition families those
// names render to must not collide across categories. The renderer
// maps a counter `name` to family `name_total`, a gauge to `name`,
// and a histogram (Phase/Observe/Hist) to `name` plus `name_bucket`,
// `name_sum`, `name_count` — so a counter "x" and a gauge "x_total"
// would silently merge on the scrape side, and nothing at runtime
// would notice.
//
// The same-name/same-category case is a merge, not a collision: many
// call sites feeding one counter is the normal shape. Dynamic names
// (built with + or Sprintf) are flagged; a handful of bounded,
// registry-derived dynamic names carry reasoned ignores. The full
// constant-name inventory is checked into metricnames.txt and pinned
// by TestLintSelfMetricRegistry, so a rename shows up in review as a
// registry diff, not as a silent dashboard break. Non-test files
// only.

import (
	"fmt"
	"go/ast"
	"go/constant"
	"sort"
)

// metricUse is one Collector call with a constant name.
type metricUse struct {
	name     string
	category string // "counter", "gauge", "hist"
	pos      ast.Node
}

// metricCategories maps Collector method -> rendered category.
var metricCategories = map[string]string{
	"Add":     "counter",
	"Max":     "gauge",
	"Phase":   "hist",
	"Observe": "hist",
	"Hist":    "hist",
}

// renderedFamilies returns the Prometheus family names a metric
// reserves, mirroring Report.WritePrometheus.
func renderedFamilies(name, category string) []string {
	switch category {
	case "counter":
		return []string{name + "_total"}
	case "gauge":
		return []string{name}
	default: // hist
		return []string{name, name + "_bucket", name + "_sum", name + "_count"}
	}
}

// MetricName returns the metricname analyzer. The returned instance
// carries the cross-package family table, so one instance sees the
// whole run (Analyzers() constructs a fresh instance per run).
func MetricName() *Analyzer {
	type famOwner struct {
		name, category, site string
	}
	families := map[string]famOwner{}
	return &Analyzer{
		Name: "metricname",
		Doc:  "require constant prom-safe Collector metric names with collision-free exposition families",
		Run: func(p *Package) []Finding {
			var out []Finding
			uses, bad := collectorMetrics(p)
			out = append(out, bad...)
			for _, u := range uses {
				if !snakeCaseRE.MatchString(u.name) {
					out = append(out, Finding{Pos: u.pos.Pos(), Message: fmt.Sprintf(
						"metric name %q is not prom-safe (want %s)", u.name, snakeCaseRE.String())})
					continue
				}
				site := fmt.Sprintf("%s:%d", p.relFile(p.Fset.Position(u.pos.Pos()).Filename), p.Fset.Position(u.pos.Pos()).Line)
				for _, fam := range renderedFamilies(u.name, u.category) {
					owner, taken := families[fam]
					if !taken {
						families[fam] = famOwner{name: u.name, category: u.category, site: site}
						continue
					}
					if owner.name == u.name && owner.category == u.category {
						continue // same metric, another call site: a merge
					}
					out = append(out, Finding{Pos: u.pos.Pos(), Message: fmt.Sprintf(
						"%s %q renders Prometheus family %q, already reserved by %s %q at %s — the scrape side would silently merge them",
						u.category, u.name, fam, owner.category, owner.name, owner.site)})
				}
			}
			return out
		},
	}
}

// collectorMetrics extracts every obs.Collector metric call in p's
// non-test files: constant-named uses, plus findings for dynamic
// names.
func collectorMetrics(p *Package) (uses []metricUse, bad []Finding) {
	for _, f := range p.Files {
		if p.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeOf(p, call)
			if fn == nil || !isMethod(fn, "internal/obs", "Collector", fn.Name()) {
				return true
			}
			category, ok := metricCategories[fn.Name()]
			if !ok {
				return true
			}
			nameArg := call.Args[0]
			if fn.Name() == "Phase" {
				nameArg = call.Args[1] // Phase(parent, name, ...)
			}
			tv, ok := p.Info.Types[nameArg]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				bad = append(bad, Finding{Pos: nameArg.Pos(), Message: fmt.Sprintf(
					"metric name must be a constant string (got %s) — a dynamic name creates unbounded Prometheus families",
					exprText(p.Fset, nameArg))})
				return true
			}
			uses = append(uses, metricUse{name: constant.StringVal(tv.Value), category: category, pos: nameArg})
			return true
		})
	}
	return uses, bad
}

// MetricNames returns the sorted, de-duplicated "<category> <name>"
// inventory of every constant Collector metric in pkgs — the registry
// that metricnames.txt pins. Dynamic and non-prom-safe names are the
// analyzer's business and are excluded here.
func MetricNames(pkgs []*Package) []string {
	seen := map[string]bool{}
	for _, p := range pkgs {
		uses, _ := collectorMetrics(p)
		for _, u := range uses {
			if snakeCaseRE.MatchString(u.name) {
				seen[u.category+" "+u.name] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
