package main

// Compare mode: paired runs of two checkouts (the parent commit and a
// change) with identical benchmark settings, following the rule for
// claiming a gain in a small sandbox:
//
//   - at least ten parent/change pairs, alternating which side runs
//     first, each pair on its own seed;
//   - per workload and metric: each side's median and quartiles, and
//     the fraction of pairs the change wins (ties count for neither);
//   - "gain" only when the change wins at least nine tenths of the
//     pairs and the medians differ by more than the parent's own
//     quartile spread; "regression" when the change's median is worse
//     than the parent's by more than the metric's bound; "unresolved"
//     when the parent's spread exceeds the bound, unless every change
//     run beats every parent run; otherwise "within bound".
//
//	bash perfbench/run.sh compare -base ../parent -change . -workloads table1_fixed,serve_open -pairs 10
//
// Each side runs "bash perfbench/run.sh ..." inside its own checkout,
// so each builds its own sources. Bounds and directions come from the
// change's BENCHMARK.json.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type runLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	base := fs.String("base", "", "checkout of the parent commit")
	change := fs.String("change", ".", "checkout of the change")
	names := fs.String("workloads", strings.Join(workloadNames(), ","), "comma-separated workloads")
	pairs := fs.Int("pairs", 10, "parent/change pairs per workload (at least 10 for a claim)")
	seed0 := fs.Int64("seed", 1000, "seed of the first pair; pair i uses seed+i")
	seconds := fs.Int("seconds", 0, "run length (0 = run_seconds of BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *base == "" || *pairs < 1 {
		fmt.Fprintln(stderr, "perfbench compare: want -base DIR and -pairs >= 1")
		return 2
	}
	raw, err := os.ReadFile(filepath.Join(*change, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(stderr, "perfbench compare: BENCHMARK.json: %v\n", err)
		return 2
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	if *pairs < 10 {
		fmt.Fprintf(stdout, "note: %d pairs; a claim needs at least 10\n", *pairs)
	}
	status := 0
	for _, w := range strings.Split(*names, ",") {
		sides := [2][]runLine{}
		for i := 0; i < *pairs; i++ {
			seed := *seed0 + int64(i)
			order := [2]int{0, 1}
			if i%2 == 1 {
				order = [2]int{1, 0}
			}
			for _, side := range order {
				dir := *base
				if side == 1 {
					dir = *change
				}
				line, err := runCheckout(dir, w, seed, *seconds, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "perfbench compare: %s seed %d in %s: %v\n", w, seed, dir, err)
					return 1
				}
				if !line.Correct || line.Failed > 0 {
					status = 1
				}
				sides[side] = append(sides[side], line)
			}
		}
		writeComparison(stdout, w, spec, sides)
	}
	return status
}

// runCheckout runs one traced-off benchmark run in dir and parses its
// result line.
func runCheckout(dir, workload string, seed int64, seconds int, stderr io.Writer) (runLine, error) {
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", workload,
		"--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Dir = dir
	cmd.Stderr = stderr
	out, err := cmd.Output()
	var line runLine
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var last string
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	if jerr := json.Unmarshal([]byte(last), &line); jerr != nil {
		if err == nil {
			err = jerr
		}
		return line, err
	}
	return line, nil
}

func writeComparison(w io.Writer, workload string, spec benchSpec, sides [2][]runLine) {
	fmt.Fprintf(w, "\n== %s: %d pairs (parent | change) ==\n", workload, len(sides[0]))
	fmt.Fprintf(w, "%-22s %-28s %-28s %5s  %s\n", "metric", "parent q1/median/q3", "change q1/median/q3", "wins", "verdict")
	for _, m := range spec.EndToEnd {
		var vals [2][]float64
		for s := range sides {
			for _, l := range sides[s] {
				vals[s] = append(vals[s], l.Metrics[m.Name].Value)
			}
		}
		sign := 1.0 // +1: higher is better
		if m.Better == "lower" {
			sign = -1
		}
		wins := 0
		for i := range vals[0] {
			if d := sign * (vals[1][i] - vals[0][i]); d > 0 {
				wins++
			}
		}
		winFrac := float64(wins) / float64(len(vals[0]))
		pq1, pq3 := quartiles(vals[0])
		cq1, cq3 := quartiles(vals[1])
		pm, cm := median(vals[0]), median(vals[1])
		spread := (pq3 - pq1) / math.Abs(pm)
		worse := -sign * (cm - pm) / math.Abs(pm)
		allBetter := sign*(minMax(vals[1], sign < 0)-minMax(vals[0], sign > 0)) > 0
		verdict := "within bound"
		switch {
		case winFrac >= 0.9 && math.Abs(cm-pm) > pq3-pq1 && sign*(cm-pm) > 0:
			verdict = "gain"
		case worse > m.Bound:
			verdict = fmt.Sprintf("regression (%.1f%% worse, bound %.0f%%)", 100*worse, 100*m.Bound)
		case spread > m.Bound && !allBetter:
			verdict = fmt.Sprintf("unresolved (parent spread %.1f%% > bound)", 100*spread)
		}
		fmt.Fprintf(w, "%-22s %-28s %-28s %4.0f%%  %s\n", m.Name,
			fmt.Sprintf("%.4g/%.4g/%.4g", pq1, pm, pq3), fmt.Sprintf("%.4g/%.4g/%.4g", cq1, cm, cq3),
			100*winFrac, verdict)
	}
}

// minMax returns the largest value when wantMax, else the smallest.
func minMax(xs []float64, wantMax bool) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if wantMax {
		return s[len(s)-1]
	}
	return s[0]
}
