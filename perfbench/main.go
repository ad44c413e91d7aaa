// Command perfbench is the repository's benchmark. It runs one
// workload per process and prints every metric by name with its unit,
// ending with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics, measured with
// tracing off; with --trace 1 they are the per-layer metrics of a
// separate traced run. Run it through run.sh, which builds it from the
// checkout's sources:
//
//	bash perfbench/run.sh --workload table1_fixed --seed 1 --seconds 15 --trace 0
//
// "perfbench compare ..." pairs two checkouts' runs (see compare.go).
// README.md documents the workloads, metrics and predictions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 3

// workloads are the benchmark's workloads by name.
var workloads = map[string]interface {
	run(runOpts) (*outcome, error)
}{
	"table1_fixed": sweepWorkload{
		// Dense spacing (the paper's 100 snapshots over 400 steps), a
		// 16-snapshot window as the projectile enters the first plate.
		scene:   sceneSpec{Paper: true, Refine: 1, Steps: 400, Every: 4, First: 24, Count: 16},
		ks:      []int{25, 100},
		minReps: 4, tailPct: 0.90, seeds: 1,
		spans: []string{"harness.sweep", "harness.snapshot", "mesh.nodal_graph", "core.descriptor",
			"contact.nremote", "metrics.eval", "mlrcb.update", "mlrcb.m2m", "mlrcb.nremote",
			"core.decompose", "mlrcb.decompose", "partition.partition", "partition.rb_coarsen",
			"partition.rb_initcut", "partition.rb_refine", "dtree.tree_induction"},
	},
	"adaptive_drift": sweepWorkload{
		// Coarse spacing (20 snapshots over 400 steps) through the
		// penetration, so the drift policy uses every rung.
		scene:    sceneSpec{Paper: true, Refine: 1, Steps: 400, Every: 20, First: 4, Count: 8},
		ks:       []int{25, 100},
		adaptive: true,
		minReps:  3, tailPct: 0.75, seeds: 3,
		spans: []string{"harness.sweep", "core.adaptive", "core.decompose", "partition.partition",
			"partition.drift_eval", "partition.rb_coarsen", "partition.rb_initcut",
			"partition.rb_refine", "dtree.tree_induction", "mesh.nodal_graph", "core.descriptor"},
	},
	"serve_open": serveWorkload{},
}

// endToEnd and perLayer are the metric catalogue, mirrored in
// BENCHMARK.json. Every workload reports every metric of its mode.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"snapshots_per_s", "1/s"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
	{"mc_fecomm", "count"},
	{"mc_nremote", "count"},
	{"mc_ntnodes", "count"},
	{"mc_imbalance_contact", "ratio"},
	{"migrated_nodes", "count"},
	{"job_p50_ms", "ms"},
	{"job_tail_ms", "ms"},
	{"jobs_per_s", "1/s"},
}

// layerSpans are the spans whose self time, calls, allocations and
// share of wall are per-layer metrics.
var layerSpans = []string{
	"mesh.nodal_graph", "core.descriptor", "contact.nremote", "metrics.eval",
	"mlrcb.update", "mlrcb.m2m", "mlrcb.nremote", "core.decompose", "mlrcb.decompose",
	"core.adaptive", "partition.partition", "partition.rb_coarsen", "partition.rb_initcut",
	"partition.rb_refine", "partition.drift_eval", "dtree.tree_induction",
	"server.submit", "server.queue_wait", "server.exec", "server.result", "server.http_overhead",
}

// layerCounts are the traced run's counts and ratios.
var layerCounts = []metricDef{
	{"core.rung_keep", "count"},
	{"core.rung_diffuse", "count"},
	{"core.rung_full", "count"},
	{"core.escalations", "count"},
	{"dtree.ntnodes", "count"},
	{"server.cache_hits", "count"},
	{"server.rejected_full", "count"},
	{"server.cache_hit_ratio", "ratio"},
	{"harness.residual_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

type metricDef struct{ name, unit string }

func perLayer() []metricDef {
	var defs []metricDef
	for _, s := range layerSpans {
		defs = append(defs, metricDef{s + ".self_ms", "ms"}, metricDef{s + ".calls", "count"},
			metricDef{s + ".alloc_mb", "MB"}, metricDef{s + ".share", "ratio"})
	}
	return append(defs, layerCounts...)
}

// isStructural reports whether a span is the benchmark's own framing
// (the replica's sweep/experiment/snapshot loop, the generator's job)
// rather than a layer.
func isStructural(name string) bool {
	return strings.HasPrefix(name, "harness.") || strings.HasPrefix(name, "loadgen.")
}

type runOpts struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	outDir   string
}

// outcome is one run's result.
type outcome struct {
	attempted, failed int64
	correct           bool
	errors            []string
	metrics           map[string]float64
	info              map[string]any
}

func newOutcome() *outcome {
	return &outcome{correct: true, metrics: map[string]float64{}, info: map[string]any{}}
}

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

// fail counts n failed operations.
func (o *outcome) fail(n int64, msg string) {
	o.failed += n
	o.errors = append(o.errors, msg)
}

// wrong counts n operations whose output was wrong.
func (o *outcome) wrong(n int64, msg string) {
	o.fail(n, msg)
	o.correct = false
}

// setLayers records each layer span's self time, calls, allocations
// and share of the traced wall time.
func (o *outcome) setLayers(stats map[string]*layerStat, wallNS int64) {
	for _, name := range layerSpans {
		st := stats[name]
		if st == nil {
			continue
		}
		o.set(name+".self_ms", float64(st.SelfNS)/1e6)
		o.set(name+".calls", float64(st.Calls))
		o.set(name+".alloc_mb", float64(st.Alloc)/1e6)
		o.set(name+".share", float64(st.SelfNS)/float64(wallNS))
	}
	o.info["traced_span_wall_ms"] = float64(wallNS) / 1e6
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 15, "how long the run measures")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	outDir := fs.String("out", ".bench_build/perfbench", "directory for trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload one of %s, --seconds > 0, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	// One process per workload with every CPU available to it.
	runtime.GOMAXPROCS(runtime.NumCPU())
	o := runOpts{workload: *workload, seed: *seed, duration: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, outDir: *outDir}

	res, err := w.run(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer()
	} else {
		res.set("peak_rss_mb", peakRSSMB())
	}
	return report(res, o, defs, stdout, stderr)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable table, the host facts and the
// result line, and returns the exit code.
func report(res *outcome, o runOpts, defs []metricDef, stdout, stderr io.Writer) int {
	errorRatio := 1.0
	if res.attempted > 0 {
		errorRatio = float64(res.failed) / float64(res.attempted)
	}
	for _, e := range res.errors {
		fmt.Fprintf(stderr, "perfbench: %s: %s\n", o.workload, e)
	}
	out := map[string]metricOut{}
	fmt.Fprintf(stdout, "perfbench %s seed=%d trace=%t\n", o.workload, o.seed, o.trace)
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			// A layer the workload does not exercise reads 0.
			if !o.trace {
				res.wrong(0, "metric "+d.name+" was not measured")
			}
			v = 0
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.wrong(0, "metric "+d.name+" is not finite")
			v = 0
		}
		out[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "  %-34s %14.6g %s\n", d.name, v, d.unit)
	}
	if !o.trace {
		// error_ratio is reported here and through attempted/failed; it
		// is 0 on a healthy run, so it is not a bounded metric.
		fmt.Fprintf(stdout, "  %-34s %14.6g %s\n", "error_ratio", errorRatio, "ratio")
	}
	facts := map[string]any{
		"workload": o.workload, "seed": o.seed, "trace": o.trace,
		"seconds": o.duration.Seconds(), "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
		"goos": runtime.GOOS, "goarch": runtime.GOARCH, "error_ratio": errorRatio,
	}
	for k, v := range res.info {
		facts[k] = v
	}
	host, err := json.Marshal(facts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: host facts: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "host %s\n", host)
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{res.correct, max(res.attempted, 1), res.failed, out})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.correct || res.failed > 0 || res.attempted == 0 {
		return 1
	}
	return 0
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1e3
		}
	}
	return math.NaN()
}
