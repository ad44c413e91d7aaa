package harness

// Per-snapshot time series: every Section 5.1 metric plus the wall
// clock each measurement leg took, one point per (experiment,
// snapshot). Where Table 1 averages the sequence away, the series
// keeps it — this is the output to plot when asking how a metric
// evolves as the projectile deforms the plates, or where the eval
// time goes.

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"
)

// SeriesPoint is one (experiment, snapshot) sample.
type SeriesPoint struct {
	K        int `json:"k"`
	Snapshot int `json:"snapshot"`
	// The six Section 5.1 metrics (Row).
	MCFEComm  int64 `json:"mc_fecomm"`
	MCNTNodes int64 `json:"mc_ntnodes"`
	MCNRemote int64 `json:"mc_nremote"`
	MLFEComm  int64 `json:"ml_fecomm"`
	MLM2MComm int64 `json:"ml_m2mcomm"`
	MLUpdComm int64 `json:"ml_updcomm"`
	MLNRemote int64 `json:"ml_nremote"`
	// Wall clock of the two measurement legs for this snapshot, in
	// nanoseconds. For snapshots restored from a checkpoint these are
	// the times recorded by the run that measured them.
	MCEvalNS int64 `json:"mc_eval_ns"`
	MLEvalNS int64 `json:"ml_eval_ns"`
	// Repartitioning event before this snapshot's measurement: the
	// drift decision ("keep", "diffuse", "full"; empty when no event)
	// and the node migration volume it caused. Omitted from JSON for
	// sweeps that never repartition.
	MCRepart   string `json:"mc_repart,omitempty"`
	MCMigrated int64  `json:"mc_migrated,omitempty"`
}

// Series flattens results into one point per (experiment, snapshot),
// in experiment then snapshot order.
func Series(results []*Result) []SeriesPoint {
	var out []SeriesPoint
	for _, r := range results {
		if r == nil {
			continue
		}
		for t, row := range r.Rows {
			p := SeriesPoint{
				K: r.K, Snapshot: t,
				MCFEComm: row.MCFEComm, MCNTNodes: row.MCNTNodes, MCNRemote: row.MCNRemote,
				MLFEComm: row.MLFEComm, MLM2MComm: row.MLM2MComm,
				MLUpdComm: row.MLUpdComm, MLNRemote: row.MLNRemote,
			}
			if t < len(r.evals) {
				p.MCEvalNS = r.evals[t].MCNS
				p.MLEvalNS = r.evals[t].MLNS
				p.MCRepart = r.evals[t].Repart
				p.MCMigrated = r.evals[t].Migrated
			}
			out = append(out, p)
		}
	}
	return out
}

// WriteSeriesJSON emits the series as a JSON array.
func WriteSeriesJSON(w io.Writer, results []*Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(Series(results))
}

// WriteSeriesCSV emits the series as CSV, one line per point.
func WriteSeriesCSV(w io.Writer, results []*Result) error {
	return writeSeriesCSV(w, results, len(seriesColumns))
}

var seriesColumns = []string{"k", "snapshot",
	"mc_fecomm", "mc_ntnodes", "mc_nremote",
	"ml_fecomm", "ml_m2mcomm", "ml_updcomm", "ml_nremote",
	"mc_eval_ns", "ml_eval_ns", "mc_repart", "mc_migrated"}

// writeSeriesCSV emits the first cols columns of the series CSV.
func writeSeriesCSV(w io.Writer, results []*Result, cols int) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(seriesColumns[:cols]); err != nil {
		return err
	}
	for _, p := range Series(results) {
		rec := []string{
			strconv.Itoa(p.K), strconv.Itoa(p.Snapshot),
			strconv.FormatInt(p.MCFEComm, 10),
			strconv.FormatInt(p.MCNTNodes, 10),
			strconv.FormatInt(p.MCNRemote, 10),
			strconv.FormatInt(p.MLFEComm, 10),
			strconv.FormatInt(p.MLM2MComm, 10),
			strconv.FormatInt(p.MLUpdComm, 10),
			strconv.FormatInt(p.MLNRemote, 10),
			strconv.FormatInt(p.MCEvalNS, 10),
			strconv.FormatInt(p.MLEvalNS, 10),
			p.MCRepart,
			strconv.FormatInt(p.MCMigrated, 10),
		}
		if err := cw.Write(rec[:cols]); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
