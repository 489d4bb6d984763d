// Command benchmark is the repo's one benchmark: five named workloads driven
// closed-loop from this process against the embedded engine, six end-to-end
// metrics per workload, and a per-layer ledger from a traced run plus
// single-threaded layer probes. README.md in this directory has the why.
//
//	go run -C benchmark .                          full set, every metric
//	go run -C benchmark . -workload hotspot        one workload
//	go run -C benchmark . -compare a.json b.json   gate two result files
//
// With -workload and -trace 0|1 the last line of standard output is the
// one-object JSON summary BENCHMARK.json's contract asks for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// Run modes, the values of -trace.
const (
	modeFull   = -1 // timed windows + traced run + probes
	modeTimed  = 0  // timed windows only: the end-to-end metrics
	modeTraced = 1  // one reference window + traced run + probes: the ledger
)

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload (default: all five)")
		seed    = flag.Int64("seed", 1, "workload seed: same seed, same inputs")
		seconds = flag.Float64("seconds", 15, "timed seconds per workload, split over the windows")
		mode    = flag.Int("trace", modeFull, "0: end-to-end metrics only; 1: per-layer metrics only; default both")
		out     = flag.String("out", "", "also write the results as JSON to this file")
		smoke   = flag.Bool("smoke", false, "tiny run that only checks the plumbing; its numbers mean nothing")
		compare = flag.Bool("compare", false, "compare two result files given as arguments and exit non-zero on a regression")
		spec    = flag.String("spec", "../BENCHMARK.json", "benchmark declaration -compare takes its bounds from")
	)
	flag.Parse()
	if *compare {
		os.Exit(runCompare(*spec, flag.Args(), os.Stdout))
	}
	if flag.NArg() > 0 || *mode < modeFull || *mode > modeTraced || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []workload{*w}
	}
	res, err := runSet(selected, newPlan(*seed, *seconds, *mode, *smoke))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if *out != "" {
		if err := res.write(*out); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	if *name != "" && *mode != modeFull {
		fmt.Println(res.Workloads[0].contractLine(*mode))
	}
}

// newPlan fixes the run shape. Only the seed and the seconds come from the
// command line; workers, windows and ring size are constants.
func newPlan(seed int64, seconds float64, mode int, smoke bool) plan {
	s := time.Duration(seconds * float64(time.Second))
	p := plan{
		workers: min(runtime.NumCPU(), 4),
		ring:    65536,
		windows: 5,
		seed:    seed,
		mode:    mode,
		smoke:   smoke,
		outDir:  "out",
		// Five windows share the timed seconds; each warms up a third of
		// its length first. The traced window has the same shape.
		warm:  s / 15,
		timed: s / 5,
	}
	p.traceWarm, p.traceTimed = p.warm, p.timed
	if mode == modeTraced {
		// One reference window and the traced window share the seconds.
		p.windows = 1
		p.warm, p.timed = s/10, 3*s/10
		p.traceWarm, p.traceTimed = s/10, s/2
	}
	if smoke {
		p.windows, p.ring = 1, 4096
		p.warm, p.timed = 30*time.Millisecond, 100*time.Millisecond
		p.traceWarm, p.traceTimed = p.warm, p.timed
	}
	return p
}

// host records where a result was measured; -compare refuses to compare
// results whose num_cpu, workers or seed differ.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
	Seed       int64  `json:"seed"`
}

func gitCommit() string {
	if sha := os.Getenv("BAMBOO_GIT_SHA"); sha != "" {
		return sha
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// series is one end-to-end metric over the windows of a run. Value is what
// the run reports for it: see metric.BestQuartile.
type series struct {
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Windows []float64 `json:"windows"`
}

func newSeries(m metric, windows []float64) series {
	q1, med, q3 := quartiles(windows)
	s := series{Unit: m.Unit, Value: med, Median: med, Q1: q1, Q3: q3, Windows: windows}
	switch {
	case m.BestQuartile && m.Better == "higher":
		s.Value = q3
	case m.BestQuartile:
		s.Value = q1
	}
	return s
}

// quartiles returns the quartiles of vals the way Python's
// statistics.quantiles(vals, n=4) does (exclusive method), so the spreads
// printed here are the ones the benchmark's driver computes.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// measured is a per-layer value with its unit.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is everything one workload produced.
type workloadResult struct {
	Name           string              `json:"name"`
	Why            string              `json:"why"`
	EndToEnd       map[string]series   `json:"end_to_end"`
	LatencySamples series              `json:"latency_samples"`
	ErrorRate      float64             `json:"error_rate"`
	Attempted      uint64              `json:"attempted"`
	Failed         uint64              `json:"failed"`
	Problems       []string            `json:"problems,omitempty"`
	Oracles        []string            `json:"oracles"`
	SpeedupVsWW    float64             `json:"speedup_vs_ww,omitempty"`
	PerLayer       map[string]measured `json:"per_layer,omitempty"`
	TraceFile      string              `json:"trace_file,omitempty"`
}

// results is the -out document.
type results struct {
	Smoke     bool              `json:"smoke"`
	Host      host              `json:"host"`
	Seconds   float64           `json:"seconds"`
	Mode      int               `json:"trace"`
	Workloads []*workloadResult `json:"workloads"`
}

func runSet(selected []workload, p plan) (*results, error) {
	res := &results{
		Smoke: p.smoke,
		Host: host{
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Workers:    p.workers,
			GoVersion:  runtime.Version(),
			GitCommit:  gitCommit(),
			Seed:       p.seed,
		},
		Seconds: (time.Duration(p.windows) * p.timed).Seconds(),
		Mode:    p.mode,
	}
	var probes values
	if p.mode != modeTimed {
		var err error
		if probes, err = runProbes(p.outDir, p.workers, p.probeShrink()); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
	}
	byName := map[string]*workloadResult{}
	for i := range selected {
		wr, err := runWorkload(&selected[i], p, probes)
		if err != nil {
			return nil, err
		}
		res.Workloads = append(res.Workloads, wr)
		byName[wr.Name] = wr
	}
	// The paper's headline ratio, when both sides were run.
	if bamboo, ww := byName["hotspot"], byName["hotspot_ww"]; bamboo != nil && ww != nil {
		bamboo.SpeedupVsWW = div(bamboo.EndToEnd["throughput_tps"].Value, ww.EndToEnd["throughput_tps"].Value)
	}
	return res, nil
}

// runWorkload runs w's timed windows, then (unless the mode is modeTimed)
// the traced window, and folds both into one result.
func runWorkload(w *workload, p plan, probes values) (*workloadResult, error) {
	wr := &workloadResult{Name: w.Name, Why: w.Why, EndToEnd: map[string]series{}}
	cols := map[string][]float64{}
	var samples []float64
	var last *window
	for i := 0; i < p.windows; i++ {
		isLast := i == p.windows-1
		win, err := runWindow(w, p, false, w.fileWAL && isLast)
		if err != nil {
			return nil, err
		}
		wr.add(win)
		cols["throughput_tps"] = append(cols["throughput_tps"], win.tps())
		cols["latency_p50_us"] = append(cols["latency_p50_us"], quantile(win.lat, 0.50)/1e3)
		cols["latency_p99_us"] = append(cols["latency_p99_us"], quantile(win.lat, 0.99)/1e3)
		cols["allocs_per_txn"] = append(cols["allocs_per_txn"], div(float64(win.mallocs), float64(win.commits)))
		cols["setup_s"] = append(cols["setup_s"], win.setup.Seconds())
		samples = append(samples, float64(len(win.lat)))
		last = win
	}
	for _, m := range endToEnd {
		wr.EndToEnd[m.Name] = newSeries(m, cols[m.Name])
	}
	wr.LatencySamples = newSeries(metric{Unit: "count"}, samples)
	wr.Oracles = append(wr.Oracles, "live DB after every window")

	var rec *recovery
	if w.fileWAL {
		var err error
		if rec, err = recoverWAL(w, p, last); err != nil {
			return nil, err
		}
		wr.fail(rec.problems)
		wr.Oracles = append(wr.Oracles, "DB recovered by ReplayDir from the last window's log")
	}
	if p.mode != modeTimed {
		tp := p
		tp.warm, tp.timed = p.traceWarm, p.traceTimed
		traced, err := runWindow(w, tp, true, false)
		if err != nil {
			return nil, err
		}
		wr.add(traced)
		v := ledger(traced, wr.EndToEnd["throughput_tps"].Value, rec)
		for name, x := range probes {
			v[name] = x
		}
		wr.PerLayer = map[string]measured{}
		for _, m := range perLayer {
			wr.PerLayer[m.Name] = measured{Value: v[m.Name], Unit: m.Unit}
		}
		if wr.TraceFile, err = writeTraceFile(p.outDir, w.Name, traced.trace.kept); err != nil {
			return nil, err
		}
	}
	wr.ErrorRate = div(float64(wr.Failed), float64(wr.Attempted))
	return wr, nil
}

// add folds a window's attempt and failure counts into the result.
func (wr *workloadResult) add(win *window) {
	wr.Attempted += win.attempted
	wr.fail(win.problems)
}

// fail records fatal Run errors and violated oracles: each counts as one
// failed operation.
func (wr *workloadResult) fail(problems []string) {
	wr.Failed += uint64(len(problems))
	wr.Problems = append(wr.Problems, problems...)
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ledger derives the traced-run per-layer metrics: tw is the traced window,
// refTPS the untraced throughput it is compared with.
func ledger(tw *window, refTPS float64, rec *recovery) values {
	t, r := tw.trace, tw.report
	txns := float64(t.spans[spanRun].n) // traced commits: one in tracedEvery
	commits := float64(r.Commits)       // every commit, from the engine's collectors
	mean := func(k spanKind) float64 { return div(float64(t.spans[k].sum), float64(t.spans[k].n)) }
	perTxn := func(k spanKind) float64 { return div(float64(t.spans[k].n), txns) }
	p := func(c int, q float64) float64 { return float64(t.class[c].Quantile(q)) }

	v := values{
		"core.run_ns":              mean(spanRun),
		"core.tx_read_ns":          mean(spanRead),
		"core.tx_update_ns":        mean(spanUpdate),
		"core.tx_insert_ns":        mean(spanInsert),
		"core.tx_read_calls":       perTxn(spanRead),
		"core.tx_update_calls":     perTxn(spanUpdate),
		"core.tx_insert_calls":     perTxn(spanInsert),
		"core.body_self_ns":        div(float64(t.bodySelf), txns),
		"core.commit_path_ns":      mean(spanCommitPath),
		"core.retry_ns":            div(float64(t.retry), txns),
		"core.attempts_per_commit": div(float64(t.attemptSum), txns),
		"core.abort_rate":          r.AbortRate,
		"core.aborts_wound":        div(float64(r.AbortsBy["wound"]), commits),
		"core.aborts_cascade":      div(float64(r.AbortsBy["cascade"]), commits),
		"core.aborts_other":        div(float64(r.Aborts-r.AbortsBy["wound"]-r.AbortsBy["cascade"]), commits),
		"core.lock_wait_ns":        float64(r.PerTxnLockWait),
		"core.commit_wait_ns":      float64(r.PerTxnCommitWait),
		"core.abort_ns":            float64(r.PerTxnAbort),
		"core.useful_ns":           float64(r.PerTxnUseful),
		"core.run_ro_p50_ns":       p(classRO, 0.50),
		"core.run_rw_p50_ns":       p(classRW, 0.50),
		"core.run_rw_p99_ns":       p(classRW, 0.99),
		"core.run_neworder_p50_ns": p(classNewOrder, 0.50),
		"core.run_payment_p50_ns":  p(classPayment, 0.50),

		"lock.wounds":              div(float64(tw.global.wounds), commits),
		"lock.cascades":            div(float64(tw.global.cascades), commits),
		"lock.chain_avg":           div(float64(tw.global.chainSum), float64(tw.global.cascades)),
		"lock.chain_max":           float64(tw.global.chainMax),
		"lock.retires":             div(float64(r.Retires), commits),
		"lock.upgrades":            div(float64(r.Upgrades), commits),
		"lock.image_copies":        div(float64(r.ImageCopies), commits),
		"lock.image_recycle_ratio": div(float64(r.ImagePoolRecycled), float64(r.ImagePoolRecycled+r.ImageCopies)),

		"storage.snapshot_reads":    div(float64(r.SnapshotReads), commits),
		"storage.versions_pruned":   div(float64(r.VersionsPruned+tw.global.versionsPruned), commits),
		"storage.version_chain_max": float64(tw.global.versionChainMax),

		"wal.append_ns":    div(float64(t.spans[spanWALAppend].sum), txns),
		"wal.append_calls": perTxn(spanWALAppend),
		"wal.bytes":        div(float64(tw.wal.Bytes), commits),
		"wal.syncs":        div(float64(tw.wal.Syncs), commits),
		"wal.sync_ns":      div(float64(tw.wal.SyncTime), commits),

		"workload.plan_ns": tw.planNS,

		"trace.overhead_frac": 1 - div(tw.tps(), refTPS),
		"trace.coverage_frac": div(float64(t.covered), float64(t.spans[spanRun].sum)),
	}
	v["core.commit_self_ns"] = v["core.commit_path_ns"] - v["wal.append_ns"]
	if rec != nil {
		v["core.recover_s"] = rec.seconds
		v["core.recover_records_per_s"] = div(float64(rec.records), rec.seconds)
	}
	return v
}

// contractLine is the one-object summary the benchmark's driver reads from
// the last line of standard output.
func (wr *workloadResult) contractLine(mode int) string {
	metrics := map[string]measured{}
	if mode != modeTimed {
		for name, m := range wr.PerLayer {
			metrics[name] = m
		}
	}
	for _, m := range endToEnd {
		// Gated metrics go with the timed run, ungated with the ledger.
		if m.Ungated == (mode != modeTimed) {
			metrics[m.Name] = measured{Value: wr.EndToEnd[m.Name].Value, Unit: m.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                `json:"correct"`
		Attempted uint64              `json:"attempted"`
		Failed    uint64              `json:"failed"`
		Metrics   map[string]measured `json:"metrics"`
	}{wr.Failed == 0, wr.Attempted, wr.Failed, metrics})
	if err != nil {
		panic(err) // only a NaN could do this, and div rules those out
	}
	return string(line)
}

func (res *results) write(path string) error {
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
