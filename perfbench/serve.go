package main

// The serving workload: an in-process partsrv over loopback HTTP under
// an open loop. Arrivals are Poisson at a fixed rate: the run's job
// count is fixed by rate x duration and the arrival times are uniform
// order statistics over the run, which is a Poisson process
// conditioned on that count. Each job is timed from its scheduled send
// time, so a late generator or a busy connection counts against the
// service. A 429 counts as refused and is not retried.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"
)

const (
	// serveRate is the offered load in jobs/s: about half the job mix's
	// capacity on 2 executors, measured on the reference host (README).
	serveRate = 12.0
	// serveQueueDepth bounds the server's job queue.
	serveQueueDepth = 32
	gridSide        = 48 // grid jobs: gridSide x gridSide, k = gridK
	gridK           = 8
	meshK           = 16 // nodal-graph jobs: k = meshK
	// A meshShare of the jobs are nodal-graph jobs. Of the rest, a
	// resubShare of all jobs resubmit one of the resubWindow latest
	// grid jobs scheduled at least resubMinAge earlier, so its result
	// is normally in the server's 64-entry LRU cache by then; the
	// others are fresh grid jobs.
	meshShare   = 0.10
	resubShare  = 0.2
	resubMinAge = 2 * time.Second
	resubWindow = 24
	// serveTailPct is job_tail_ms's percentile: the highest with at
	// least ten samples beyond it in a 20 s run, and inside the
	// nodal-graph jobs' latencies rather than on the edge between the
	// two job sizes.
	serveTailPct = 0.95
	// A job's status is polled after pollMin, doubling up to pollMax.
	pollMin = time.Millisecond
	pollMax = 8 * time.Millisecond
)

// serveScene is the DefaultScene (~10k nodes) at two consecutive coarse
// snapshots: the nodal-graph jobs partition one or the other.
var serveScene = sceneSpec{Refine: 1, Steps: 400, Every: 20, First: 9, Count: 2}

type serveWorkload struct{}

type jobKind int

const (
	kindGrid jobKind = iota
	kindMesh
	kindResubmit
)

// plannedJob is one arrival of the schedule.
type plannedJob struct {
	at   time.Duration
	kind jobKind
	k    int
	seed int64
	snap int // kindMesh: which snapshot
	pair int // kindMesh: jobs 2p and 2p+1 share a seed, snapshots 0 and 1
	of   int // kindResubmit: index of the original job
	body []byte
}

// servePayloads are the set-up's products: the server, the graphs in
// wire form and the schedule with every request body built.
type servePayloads struct {
	srv   *partsrv
	sc    *scene
	grid  csr
	mesh  [2]csr
	ids   [2][]int64
	plan  []plannedJob
	pairs int
}

func setupServe(seed int64, d time.Duration, traceRing int) (*servePayloads, error) {
	srv, err := startPartsrv(runtime.NumCPU(), serveQueueDepth, traceRing)
	if err != nil {
		return nil, err
	}
	sc, err := buildScene(serveScene)
	if err != nil {
		return nil, errors.Join(err, srv.stop(context.Background()))
	}
	p := &servePayloads{srv: srv, sc: sc, grid: gridCSR(gridSide)}
	graphJSON := [3][]byte{}
	if graphJSON[0], err = json.Marshal(p.grid); err != nil {
		return nil, errors.Join(err, srv.stop(context.Background()))
	}
	for i := range p.mesh {
		p.mesh[i] = nodalCSR(sc, i)
		p.ids[i] = nodeIDs(sc, i)
		if graphJSON[i+1], err = json.Marshal(p.mesh[i]); err != nil {
			return nil, errors.Join(err, srv.stop(context.Background()))
		}
	}
	p.plan, p.pairs = planJobs(seed, d)
	for i := range p.plan {
		j := &p.plan[i]
		switch j.kind {
		case kindResubmit:
			j.body = p.plan[j.of].body
		case kindGrid:
			j.body = jobBody(gridK, j.seed, graphJSON[0])
		case kindMesh:
			j.body = jobBody(meshK, j.seed, graphJSON[1+j.snap])
		}
	}
	return p, nil
}

func jobBody(k int, seed int64, graph []byte) []byte {
	b := fmt.Appendf(nil, `{"kind":"graph","k":%d,"seed":%d,"graph":`, k, seed)
	return append(append(b, graph...), '}')
}

// planJobs draws the schedule for a run of length d from seed.
func planJobs(seed int64, d time.Duration) ([]plannedJob, int) {
	rng := rand.New(rand.NewSource(seed))
	n := int(math.Round(serveRate * d.Seconds()))
	at := make([]float64, n)
	for i := range at {
		at[i] = rng.Float64() * float64(d)
	}
	sort.Float64s(at)
	plan := make([]plannedJob, n)
	used := map[int64]bool{}
	freshSeed := func() int64 {
		for {
			if s := rng.Int63n(1<<31) + 1; !used[s] {
				used[s] = true
				return s
			}
		}
	}
	// Exactly nMesh nodal-graph jobs, one at a seeded position in each
	// of nMesh equal stretches of the schedule: a fixed, evenly spread
	// mix keeps the latency percentiles from drifting with how the
	// heavy jobs happen to bunch up.
	nMesh := 2 * int(math.Round(meshShare*float64(n)/2))
	isMesh := make([]bool, n)
	for b := 0; b < nMesh; b++ {
		lo, hi := b*n/nMesh, (b+1)*n/nMesh
		isMesh[lo+rng.Intn(hi-lo)] = true
	}
	var grids []int // fresh grid jobs, the resubmission targets
	meshJobs, pairSeed := 0, int64(0)
	for i := range plan {
		j := &plan[i]
		j.at = time.Duration(at[i])
		if isMesh[i] {
			if meshJobs%2 == 0 {
				pairSeed = freshSeed()
			}
			j.kind, j.k, j.seed, j.snap, j.pair = kindMesh, meshK, pairSeed, meshJobs%2, meshJobs/2
			meshJobs++
			continue
		}
		if rng.Float64() < resubShare/(1-meshShare) {
			// Only recent jobs: older results may have left the LRU.
			cut := sort.Search(len(grids), func(x int) bool { return plan[grids[x]].at > j.at-resubMinAge })
			if lo := max(cut-resubWindow, 0); cut > lo {
				j.kind, j.of = kindResubmit, grids[lo+rng.Intn(cut-lo)]
				j.k = plan[j.of].k
				continue
			}
		}
		grids = append(grids, i)
		j.kind, j.k, j.seed = kindGrid, gridK, freshSeed()
	}
	return plan, nMesh / 2
}

// gridCSR is a unit-weight side x side grid graph.
func gridCSR(side int) csr {
	g := csr{NCon: 1, Xadj: []int32{0}}
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			for _, d := range [][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
				ux, uy := x+d[0], y+d[1]
				if ux >= 0 && ux < side && uy >= 0 && uy < side {
					g.Adj = append(g.Adj, int32(uy*side+ux))
				}
			}
			g.Xadj = append(g.Xadj, int32(len(g.Adj)))
		}
	}
	return g
}

// jobView is the part of partsrv's job view the generator reads.
type jobView struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Cached bool   `json:"cached"`
	Error  string `json:"error"`
	WallNS int64  `json:"wall_ns"`
	Obs    *struct {
		Phases []struct {
			Name    string `json:"name"`
			TotalNS int64  `json:"total_ns"`
		} `json:"phases"`
	} `json:"obs"`
}

// jobRecord is what the generator saw of one job.
type jobRecord struct {
	due, postStart, postEnd, waitEnd, resStart, resEnd time.Time
	lag                                                time.Duration
	refused                                            bool
	err                                                string
	view                                               jobView
	result                                             []byte
	execNS                                             int64 // traced run: the job's execution span
	done                                               bool
}

func (r *jobRecord) latency() time.Duration { return r.resEnd.Sub(r.due) }

// drive runs the schedule against the server and returns the records
// and the run's wall time (start to the last completion).
func drive(p *servePayloads, traced bool) ([]jobRecord, time.Duration) {
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU(),
			DisableCompression: true},
		Timeout: 2 * time.Minute,
	}
	defer client.CloseIdleConnections()
	recs := make([]jobRecord, len(p.plan))
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for i := range p.plan {
		due := start.Add(p.plan[i].at)
		time.Sleep(time.Until(due))
		recs[i].due, recs[i].lag = due, time.Since(due)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runJob(client, p.srv.URL, p.plan[i].body, &recs[i], traced)
		}(i)
	}
	wg.Wait()
	end := start
	for i := range recs {
		if recs[i].done && recs[i].resEnd.After(end) {
			end = recs[i].resEnd
		}
	}
	return recs, end.Sub(start)
}

// runJob submits one job, waits for it, fetches its result and, in the
// traced run, its execution time from the job's retained trace.
func runJob(client *http.Client, base string, body []byte, rec *jobRecord, traced bool) {
	rec.postStart = time.Now()
	code, resp, err := call(client, http.MethodPost, base+"/api/v1/jobs", body)
	rec.postEnd = time.Now()
	switch {
	case err != nil:
		rec.err = "submit: " + err.Error()
		return
	case code == http.StatusTooManyRequests:
		rec.refused = true
		return
	case code != http.StatusAccepted:
		rec.err = fmt.Sprintf("submit: status %d: %s", code, bytes.TrimSpace(resp))
		return
	}
	if err := json.Unmarshal(resp, &rec.view); err != nil {
		rec.err = "submit: " + err.Error()
		return
	}
	rec.waitEnd = rec.postEnd
	// Poll for completion rather than long-poll with ?wait=1: a
	// long-poll would hold one of the few connections for the whole
	// job, so one slow job would stall every other job's requests.
	for pause := pollMin; rec.view.Status == "queued" || rec.view.Status == "running"; pause = min(2*pause, pollMax) {
		time.Sleep(pause)
		code, resp, err = call(client, http.MethodGet, base+"/api/v1/jobs/"+rec.view.ID, nil)
		rec.waitEnd = time.Now()
		if err == nil && code == http.StatusOK {
			rec.view = jobView{}
			err = json.Unmarshal(resp, &rec.view)
		}
		if err != nil || code != http.StatusOK {
			rec.err = fmt.Sprintf("wait: status %d err %v", code, err)
			return
		}
	}
	if rec.view.Status != "done" {
		rec.err = fmt.Sprintf("job %s %s: %s", rec.view.ID, rec.view.Status, rec.view.Error)
		return
	}
	rec.resStart = time.Now()
	code, resp, err = call(client, http.MethodGet, base+"/api/v1/jobs/"+rec.view.ID+"/result", nil)
	rec.resEnd = time.Now()
	if err != nil || code != http.StatusOK {
		rec.err = fmt.Sprintf("result: status %d err %v", code, err)
		return
	}
	rec.result, rec.done = resp, true
	if traced && !rec.view.Cached {
		code, resp, err = call(client, http.MethodGet, base+"/api/v1/jobs/"+rec.view.ID+"/trace", nil)
		if err == nil && code == http.StatusOK {
			rec.execNS, err = jobSpanNS(resp)
		}
		if err != nil || code != http.StatusOK {
			rec.err = fmt.Sprintf("trace: status %d err %v", code, err)
			rec.done = false
		}
	}
}

func call(client *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close() // read to the end below; nothing else to report
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// jobSpanNS is the duration of the "job" span in a partsrv job trace.
func jobSpanNS(trace []byte) (int64, error) {
	var t struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &t); err != nil {
		return 0, err
	}
	begin, end := math.NaN(), math.NaN()
	for _, e := range t.TraceEvents {
		switch {
		case e.Name == "job" && e.Ph == "B":
			begin = e.TS
		case e.Name == "job" && e.Ph == "E":
			end = e.TS
		}
	}
	if math.IsNaN(begin) || math.IsNaN(end) {
		return 0, fmt.Errorf("no job span in the job trace")
	}
	return int64((end - begin) * 1e3), nil
}

// graphResult is partsrv's graph-job result.
type graphResult struct {
	Labels     []int32   `json:"labels"`
	Cut        int64     `json:"cut"`
	Imbalances []float64 `json:"imbalances"`
}

// serveCheck is what checking a run's records produced.
type serveCheck struct {
	completed, meshDone int
	quality             [4]float64 // mean fecomm, ntnodes, nremote, contact imbalance
	migrated            float64    // mean migrated nodes per complete pair
	latMS, lagMS        []float64
}

// check validates every completed job's result, counts failures into
// res, and computes the run's quality figures.
func (p *servePayloads) check(recs []jobRecord, res *outcome) serveCheck {
	var c serveCheck
	first := map[int][]byte{} // original job -> first result bytes seen
	type meshOut struct {
		labels []int32
		ok     bool
	}
	pairs := make([][2]meshOut, p.pairs)
	var qsum [4]float64
	res.attempted += int64(len(recs))
	for i := range recs {
		r, j := &recs[i], &p.plan[i]
		c.lagMS = append(c.lagMS, float64(r.lag)/1e6)
		switch {
		case r.refused:
			res.fail(1, fmt.Sprintf("job %d refused (429)", i))
			continue
		case !r.done:
			res.fail(1, fmt.Sprintf("job %d: %s", i, r.err))
			continue
		}
		c.completed++
		c.latMS = append(c.latMS, float64(r.latency())/1e6)
		orig := i
		if j.kind == kindResubmit {
			orig = j.of
		}
		if prev, ok := first[orig]; ok && !bytes.Equal(prev, r.result) {
			res.wrong(1, fmt.Sprintf("job %d: result differs from the first computation of job %d", i, orig))
			continue
		} else if !ok {
			first[orig] = r.result
		}
		g := p.grid
		if k := p.plan[orig]; k.kind == kindMesh {
			g = p.mesh[k.snap]
		}
		var gr graphResult
		if err := json.Unmarshal(r.result, &gr); err != nil {
			res.wrong(1, fmt.Sprintf("job %d: result: %v", i, err))
			continue
		}
		if msg := checkGraphResult(g, j.k, gr); msg != "" {
			res.wrong(1, fmt.Sprintf("job %d: %s", i, msg))
			continue
		}
		if j.kind != kindMesh {
			continue
		}
		c.meshDone++
		fe, nt, nr, err := meshQuality(p.sc, j.snap, gr.Labels, j.k)
		if err != nil {
			res.wrong(1, fmt.Sprintf("job %d: descriptor: %v", i, err))
			continue
		}
		for q, v := range [4]float64{float64(fe), float64(nt), float64(nr), gr.Imbalances[1]} {
			qsum[q] += v
		}
		pairs[j.pair][j.snap] = meshOut{gr.Labels, true}
	}
	if c.meshDone > 0 {
		for q := range qsum {
			c.quality[q] = qsum[q] / float64(c.meshDone)
		}
	}
	var moved, complete float64
	for _, pr := range pairs {
		if pr[0].ok && pr[1].ok {
			moved += float64(migratedNodes(p.ids[0], pr[0].labels, p.ids[1], pr[1].labels))
			complete++
		}
	}
	c.migrated = moved / complete
	return c
}

// checkGraphResult checks one label per vertex, each in [0,k), the
// reported cut against a recount, and one imbalance per constraint.
func checkGraphResult(g csr, k int, r graphResult) string {
	nv := len(g.Xadj) - 1
	if len(r.Labels) != nv {
		return fmt.Sprintf("%d labels for %d vertices", len(r.Labels), nv)
	}
	for v, l := range r.Labels {
		if l < 0 || int(l) >= k {
			return fmt.Sprintf("vertex %d label %d outside [0,%d)", v, l, k)
		}
	}
	var cut int64
	for v := 0; v < nv; v++ {
		for e := g.Xadj[v]; e < g.Xadj[v+1]; e++ {
			if u := g.Adj[e]; int(u) > v && r.Labels[u] != r.Labels[v] {
				w := int64(1)
				if g.AdjWgt != nil {
					w = int64(g.AdjWgt[e])
				}
				cut += w
			}
		}
	}
	if cut != r.Cut {
		return fmt.Sprintf("reported cut %d, recount %d", r.Cut, cut)
	}
	if len(r.Imbalances) != g.NCon {
		return fmt.Sprintf("%d imbalances for %d constraints", len(r.Imbalances), g.NCon)
	}
	return ""
}

// migratedNodes counts the nodes present in both snapshots whose label
// differs between the two served partitions.
func migratedNodes(idsA []int64, labelsA []int32, idsB []int64, labelsB []int32) int {
	byID := make(map[int64]int32, len(idsA))
	for v, id := range idsA {
		byID[id] = labelsA[v]
	}
	n := 0
	for v, id := range idsB {
		if l, ok := byID[id]; ok && l != labelsB[v] {
			n++
		}
	}
	return n
}

func (serveWorkload) run(o runOpts) (*outcome, error) {
	if o.trace {
		return runServeTraced(o)
	}
	res := newOutcome()
	var setups []float64
	var p *servePayloads
	for i := 0; i < setupReps; i++ {
		if p != nil {
			if err := p.srv.stop(context.Background()); err != nil {
				return nil, err
			}
			p = nil
		}
		t0 := time.Now()
		var err error
		if p, err = setupServe(o.seed, o.duration, 0); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	a0 := heapAllocBytes()
	recs, wall := drive(p, false)
	allocs := heapAllocBytes() - a0
	if err := p.srv.stop(context.Background()); err != nil {
		res.wrong(0, "drain: "+err.Error())
	}
	c := p.check(recs, res)
	if c.completed == 0 {
		return res, nil
	}
	res.set("setup_s", median(setups))
	res.set("snapshots_per_s", float64(c.meshDone)/wall.Seconds())
	res.set("alloc_mb_per_op", float64(allocs)/1e6/float64(c.completed))
	res.set("mc_fecomm", c.quality[0])
	res.set("mc_ntnodes", c.quality[1])
	res.set("mc_nremote", c.quality[2])
	res.set("mc_imbalance_contact", c.quality[3])
	res.set("migrated_nodes", c.migrated)
	res.set("job_p50_ms", median(c.latMS))
	res.set("job_tail_ms", quantile(c.latMS, serveTailPct))
	res.set("jobs_per_s", float64(c.completed)/wall.Seconds())
	res.info["tail_percentile"] = serveTailPct * 100
	res.info["jobs"] = len(recs)
	res.info["offered_per_s"] = serveRate
	res.info["lag_p99_ms"] = quantile(c.lagMS, 0.99)
	return res, nil
}

// runServeTraced runs the schedule untraced, then again against a
// server that retains job traces, and attributes each traced job's
// client latency to the generator, the HTTP round trips, the queue and
// execution.
func runServeTraced(o runOpts) (*outcome, error) {
	res := newOutcome()
	p, err := setupServe(o.seed, o.duration, 0)
	if err != nil {
		return nil, err
	}
	plain, _ := drive(p, false)
	if err := p.srv.stop(context.Background()); err != nil {
		res.wrong(0, "drain: "+err.Error())
	}
	cPlain := p.check(plain, res)

	if p, err = setupServe(o.seed, o.duration, 2*len(p.plan)+1); err != nil {
		return nil, err
	}
	tr := newTracer()
	recs, _ := drive(p, true)
	_, acct, aerr := call(http.DefaultClient, http.MethodGet, p.srv.URL+"/api/v1/accounting", nil)
	if err := p.srv.stop(context.Background()); err != nil {
		res.wrong(0, "drain: "+err.Error())
	}
	cTraced := p.check(recs, res)

	var busy int64
	for i := range recs {
		r := &recs[i]
		if !r.done {
			continue
		}
		root := tr.place(nil, "loadgen.job", r.due, r.resEnd)
		tr.place(root, "server.submit", r.postStart, r.postEnd)
		if !r.view.Cached && r.waitEnd.After(r.postEnd) {
			wait := tr.place(root, "server.http_overhead", r.postEnd, r.waitEnd)
			execStart := r.waitEnd.Add(-time.Duration(r.execNS))
			tr.place(wait, "server.queue_wait", r.waitEnd.Add(-time.Duration(r.view.WallNS)), execStart)
			exec := tr.place(wait, "server.exec", execStart, r.waitEnd)
			if r.view.Obs != nil {
				total := map[string]int64{}
				for _, ph := range r.view.Obs.Phases {
					total[ph.Name] = ph.TotalNS
				}
				deriveObs(tr, exec, total)
			}
			busy += r.execNS
		}
		tr.place(root, "server.result", r.resStart, r.resEnd)
	}
	stats, wall := tr.aggregate()
	res.setLayers(stats, wall)
	var layerSelf int64
	for name, st := range stats {
		if !isStructural(name) {
			layerSelf += st.SelfNS
		}
	}
	sumMS := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s
	}
	res.set("harness.residual_ms", sumMS(cPlain.latMS)-float64(layerSelf)/1e6)
	res.set("trace.overhead_ratio", sumMS(cTraced.latMS)/sumMS(cPlain.latMS))
	res.set("loadgen.lag_p99_ms", quantile(cPlain.lagMS, 0.99))

	var a struct {
		Accepted     int64 `json:"accepted"`
		CacheHits    int64 `json:"cache_hits"`
		RejectedFull int64 `json:"rejected_full"`
	}
	if aerr == nil {
		aerr = json.Unmarshal(acct, &a)
	}
	if aerr != nil {
		res.wrong(0, "accounting: "+aerr.Error())
	} else {
		res.set("server.cache_hits", float64(a.CacheHits))
		res.set("server.rejected_full", float64(a.RejectedFull))
		res.set("server.cache_hit_ratio", float64(a.CacheHits)/float64(max(a.Accepted, 1)))
	}
	res.info["utilization"] = float64(busy) / (o.duration.Seconds() * 1e9 * float64(runtime.NumCPU()))
	res.info["jobs"] = len(recs)
	if err := res.writeTrace(tr, o, []string{"loadgen.job", "server.submit", "server.http_overhead",
		"server.queue_wait", "server.exec", "server.result", "partition.rb_coarsen",
		"partition.rb_initcut", "partition.rb_refine"}); err != nil {
		return nil, err
	}
	return res, nil
}
