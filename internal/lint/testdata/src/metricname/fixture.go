// Fixture for metricname: Collector metric names must be constant,
// prom-safe, and collision-free across rendered exposition families
// (counter name -> name_total, gauge -> name, hist -> name plus
// _bucket/_sum/_count).
package metricname

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// dynamic builds a name at runtime: an unbounded family set. Phase's
// name is its second argument.
func dynamic(col *obs.Collector, leg string) {
	col.Add(fmt.Sprintf("compare_%s_runs", leg), 1)
	col.Phase(nil, leg+"_eval").End()
}

// notPromSafe would be rewritten by the exposition layer.
func notPromSafe(col *obs.Collector) {
	col.Max("QueueDepth", 3)
}

// collide: a gauge landing on a counter's rendered family, and a
// gauge landing on a histogram's _count family.
func collide(col *obs.Collector) {
	col.Add("fx_queue_depth", 1)
	col.Max("fx_queue_depth_total", 2)
	col.Observe("fx_queue_wait", time.Millisecond)
	col.Max("fx_queue_wait_count", 4)
}

// merge is the normal shape: one counter fed from two sites.
func merge(col *obs.Collector) {
	col.Add("fx_jobs", 1)
	col.Add("fx_jobs", 2)
}

// hists: Phase, Observe, and Hist on one name are the same family.
func hists(col *obs.Collector) {
	ph := col.Phase(nil, "fx_phase")
	col.Observe("fx_phase", time.Millisecond)
	col.Hist("fx_phase", 7)
	ph.End()
}

// suppressed: a bounded dynamic name with a reason.
func suppressed(col *obs.Collector, leg string) {
	//lint:ignore metricname fixture: bounded by a fixed registry
	col.Add("compare_"+leg+"_runs", 1)
}
