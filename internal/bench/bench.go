// Package bench contains the experiment runners that regenerate every
// table and figure of the paper's evaluation (§5). Each experiment
// produces the same series the paper plots — protocol × x-axis →
// throughput and, where the paper shows them, the amortized per-
// transaction runtime breakdowns (lock wait / abort / commit wait /
// useful work).
//
// The runners are used three ways: from unit-style smoke tests, from the
// root bench_test.go (go test -bench), and from cmd/bamboo-bench. Absolute
// numbers depend on the host; the reproduction target is each figure's
// shape (who wins, by what factor, where the crossover falls), recorded in
// EXPERIMENTS.md. What they measured is written as a versioned JSON
// document (File) or as the human-readable table (WriteTable).
package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"bamboo/internal/chop"
	"bamboo/internal/core"
	"bamboo/internal/occ"
	"bamboo/internal/rpcsim"
	"bamboo/internal/stats"
	"bamboo/internal/telemetry"
	"bamboo/internal/wal"
	"bamboo/internal/workload/synth"
	"bamboo/internal/workload/tpcc"
	"bamboo/internal/workload/ycsb"
)

// Scale bounds an experiment's cost. It is also the result document's
// scale block: durations marshal as integer nanoseconds, and the fields
// that shape no measured point stay out of it.
type Scale struct {
	// Threads is the worker sweep; nil selects a default bounded by
	// GOMAXPROCS.
	Threads []int `json:"threads"`
	// TxnsPerWorker is the per-point transaction count when Duration is
	// zero.
	TxnsPerWorker int `json:"txns_per_worker"`
	// Duration, when set, runs each point for a fixed wall-clock time.
	Duration time.Duration `json:"duration_ns"`
	// Rows scales the workload tables.
	Rows int `json:"rows"`
	// RTT is the interactive-mode round trip.
	RTT time.Duration `json:"rtt_ns"`
	// Repeat runs every point this many times and reports the
	// median-throughput sample (<=1 means once): on noisy shared hosts
	// single samples of contended points can swing ±25%.
	Repeat int `json:"-"`
	// Partitions is the storage partition count every point's tables are
	// created with (0/1 = the flat single-partition layout).
	Partitions int `json:"partitions,omitempty"`
	// ThreadsExplicit marks Threads as a user-requested sweep (the CLI
	// -threads flag). Experiments with their own ladders (scaling) honor
	// an explicit sweep verbatim but replace built-in defaults.
	ThreadsExplicit bool `json:"-"`
	// ReadOnlyFrac, when positive, pins the readmvcc experiment's
	// read-only-fraction ladder to this single value (mirroring how
	// -partitions pins the partition ladder); 0 keeps the built-in
	// 0.5/0.9/0.95/1.0 sweep.
	ReadOnlyFrac float64 `json:"readonly_frac,omitempty"`
	// Seed, when nonzero, fixes the workload RNG seed every point's
	// loader and generators derive their per-worker streams from, so A/B
	// comparisons (before vs after) see identical Zipfian key sequences.
	// 0 keeps the workloads' built-in seeding. Recorded so A/B documents
	// state whether their key streams were identical.
	Seed int64 `json:"seed,omitempty"`
	// Metrics, when non-nil, is a live telemetry registry every point's
	// DB attaches to for the duration of its run (the bamboo-bench
	// -metrics-addr flag serves one process-wide registry): a scraper
	// sees whichever point is currently executing, and bamboo_up 0
	// between points. Nil keeps benchmark DBs metrics-free.
	Metrics *telemetry.Registry `json:"-"`
}

// Quick is the configuration used by tests and CI's smoke runs: small
// but contentious. Points are repeated (median-of-5) because a quick
// point lasts only tens of milliseconds.
func Quick() Scale {
	return Scale{Threads: []int{4}, TxnsPerWorker: 300, Rows: 20000, RTT: 20 * time.Microsecond, Repeat: 5}
}

// Full is the configuration used by the CLI and benchmarks.
func Full() Scale {
	maxT := runtime.GOMAXPROCS(0)
	var threads []int
	for _, t := range []int{1, 2, 4, 8, 16, 32, 64} {
		if t <= 2*maxT {
			threads = append(threads, t)
		}
	}
	return Scale{Threads: threads, Duration: 400 * time.Millisecond,
		TxnsPerWorker: 2000, Rows: 100000, RTT: 100 * time.Microsecond}
}

func (s Scale) threads() []int {
	if len(s.Threads) > 0 {
		return s.Threads
	}
	return []int{1, 4, 16}
}

// Experiment is a runner and, once run, its series: All lists the
// runners, and the result document carries each run one with its points.
type Experiment struct {
	ID        string                `json:"id"`
	Title     string                `json:"title"`
	Run       func(s Scale) []Point `json:"-"`
	ElapsedNS int64                 `json:"elapsed_ns"` // wall time of the whole run
	Points    []Point               `json:"points"`
}

// All returns every experiment by id; EXPERIMENTS.md describes each one.
func All() []Experiment {
	return []Experiment{
		{ID: "fig1", Title: "Fig 1: schedule makespan with one hotspot (2PL vs OCC vs Bamboo)", Run: Fig1Schedules},
		{ID: "sec5.2", Title: "§5.2: single hotspot at the beginning, protocol comparison", Run: Sec52SingleHotspot},
		{ID: "fig3a", Title: "Fig 3a: Bamboo/Wound-Wait speedup vs threads × txn length", Run: Fig3aSpeedup},
		{ID: "fig3b", Title: "Fig 3b: throughput vs hotspot position", Run: Fig3bHotspotPosition},
		{ID: "fig4", Title: "Fig 4: two hotspots, first fixed at beginning", Run: Fig4SecondHotspot},
		{ID: "fig5", Title: "Fig 5: two hotspots, second fixed at end", Run: Fig5FirstHotspot},
		{ID: "fig6", Title: "Fig 6: YCSB vs threads (theta=0.9)", Run: Fig6YCSBThreads},
		{ID: "fig7", Title: "Fig 7: YCSB with 5% long read-only transactions", Run: Fig7LongReadOnly},
		{ID: "fig8", Title: "Fig 8: YCSB vs Zipfian theta, stored-procedure + interactive", Run: Fig8YCSBZipf},
		{ID: "fig9", Title: "Fig 9: TPC-C vs threads (1 warehouse), both modes", Run: Fig9TPCCThreads},
		{ID: "fig10", Title: "Fig 10: TPC-C vs warehouses, both modes", Run: Fig10TPCCWarehouses},
		{ID: "fig11", Title: "Fig 11: Bamboo vs IC3 on TPC-C (original and modified NewOrder)", Run: Fig11IC3},
		{ID: "delta", Title: "§5.1: delta sweep for Optimization 2", Run: DeltaSweep},
		{ID: "ablation", Title: "Ablation: Bamboo optimizations on/off", Run: Ablation},
		{ID: "scaling", Title: "Scaling: thread ladder on the interactive hotspot workload", Run: ScalingSweep},
		{ID: "upgrade", Title: "Upgrade: un-annotated RMW hotspot, SH→EX upgrade-rate sweep", Run: UpgradeSweep},
		{ID: "partition", Title: "Partition: YCSB throughput and load time vs partition count (theta=0.9)", Run: PartitionSweep},
		{ID: "durability", Title: "Durability: fsync policy × partitions on file-backed partition WALs (theta=0.6)", Run: DurabilitySweep},
		{ID: "readmvcc", Title: "MVCC: lock-free snapshot reads vs shared-lock baseline, read-only fraction × theta (YCSB)", Run: ReadMVCCSweep},
	}
}

// Find returns the experiment with the given id, or nil.
func Find(id string) *Experiment {
	for _, e := range All() {
		if e.ID == id {
			e := e
			return &e
		}
	}
	return nil
}

// engineBuilder builds a fresh engine (and DB) for one point. make
// receives the point's partition count so one builder serves every point
// of a partition sweep. name, when set, labels the point's series instead
// of the engine's protocol name.
type engineBuilder struct {
	name string
	make func(partitions int) (core.Engine, *core.DB, func())
}

func lockBuilder(cfg core.Config) engineBuilder {
	return engineBuilder{make: func(partitions int) (core.Engine, *core.DB, func()) {
		c := cfg
		c.Partitions = partitions
		db := core.NewDB(c)
		return core.NewLockEngine(db), db, func() { db.Close() }
	}}
}

func siloBuilder() engineBuilder {
	return engineBuilder{make: func(partitions int) (core.Engine, *core.DB, func()) {
		db := core.NewDB(core.Config{Partitions: partitions})
		e := occ.New(db)
		return e, db, e.Close
	}}
}

func ic3Builder() engineBuilder {
	return engineBuilder{make: func(partitions int) (core.Engine, *core.DB, func()) {
		db := core.NewDB(core.Config{Partitions: partitions})
		return chop.New(db), db, func() { db.Close() }
	}}
}

func standardBuilders() []engineBuilder {
	return []engineBuilder{
		lockBuilder(core.Bamboo()),
		lockBuilder(core.WoundWait()),
		lockBuilder(core.WaitDie()),
		lockBuilder(core.NoWait()),
		siloBuilder(),
	}
}

// runSeries runs one point per builder, all labelled x.
func runSeries(s Scale, x string, builders []engineBuilder, interactive bool,
	load func(db *core.DB) (core.Generator, error), threads int) []Point {

	points := make([]Point, 0, len(builders))
	for _, b := range builders {
		points = append(points, Point{X: x, Report: runPoint(s, b, interactive, load, threads)})
	}
	return points
}

// runPoint loads a workload into a fresh engine and drives it, repeating
// the point s.Repeat times and keeping the median-throughput sample.
func runPoint(s Scale, b engineBuilder, interactive bool,
	load func(db *core.DB) (core.Generator, error), threads int) stats.Report {

	n := s.Repeat
	if n < 1 {
		n = 1
	}
	reports := make([]stats.Report, 0, n)
	for i := 0; i < n; i++ {
		reports = append(reports, runPointOnce(s, b, interactive, load, threads))
	}
	return medianReport(reports)
}

// medianReport reduces repeated samples of one point to the
// throughput-median sample, with per-metric medians for the load time
// and the latency figures.
func medianReport(reports []stats.Report) stats.Report {
	sort.Slice(reports, func(i, j int) bool {
		return reports[i].ThroughputTPS < reports[j].ThroughputTPS
	})
	rep := reports[len(reports)/2]
	// Each of them gets its own median: the throughput-median sample can
	// carry an arbitrarily lucky or unlucky tail (p99 is ~the 12th worst
	// of 1200 samples at quick scale).
	medianDur := func(get func(*stats.Report) time.Duration) time.Duration {
		ds := make([]time.Duration, len(reports))
		for i := range reports {
			ds[i] = get(&reports[i])
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[len(ds)/2]
	}
	rep.LoadTime = medianDur(func(r *stats.Report) time.Duration { return r.LoadTime })
	rep.LatencyMean = medianDur(func(r *stats.Report) time.Duration { return r.LatencyMean })
	rep.LatencyP50 = medianDur(func(r *stats.Report) time.Duration { return r.LatencyP50 })
	rep.LatencyP90 = medianDur(func(r *stats.Report) time.Duration { return r.LatencyP90 })
	rep.LatencyP95 = medianDur(func(r *stats.Report) time.Duration { return r.LatencyP95 })
	rep.LatencyP99 = medianDur(func(r *stats.Report) time.Duration { return r.LatencyP99 })
	rep.LatencyP999 = medianDur(func(r *stats.Report) time.Duration { return r.LatencyP999 })
	rep.LatencyMax = medianDur(func(r *stats.Report) time.Duration { return r.LatencyMax })
	return rep
}

func runPointOnce(s Scale, b engineBuilder, interactive bool,
	load func(db *core.DB) (core.Generator, error), threads int) stats.Report {

	// Start every measurement from a collected heap: without this, a
	// point's GC pacing depends on how much garbage the *previous*
	// protocols left behind, which couples measurements to run order.
	runtime.GC()
	parts := s.Partitions
	if parts < 1 {
		parts = 1
	}
	e, db, closer := b.make(parts)
	defer closer()
	db.EnableMetrics(s.Metrics)
	loadStart := time.Now()
	gen, err := load(db)
	loadTime := time.Since(loadStart)
	if err != nil {
		panic(fmt.Sprintf("bench: load: %v", err))
	}
	// Checkpoint-enabled builders measure the lifecycle's cost during the
	// run, so the background loop starts only once the base load is in
	// (the same ordering recovery requires). No-op otherwise.
	db.StartCheckpointer()
	eng := e
	if interactive {
		eng = rpcsim.New(e, rpcsim.Config{RTT: s.RTT})
	}
	var res core.RunResult
	if s.Duration > 0 {
		res = core.RunFor(eng, threads, s.Duration, gen)
	} else {
		res = core.RunN(eng, threads, s.TxnsPerWorker, gen)
	}
	if res.Err != nil {
		panic(fmt.Sprintf("bench: run: %v", res.Err))
	}
	// The series is the engine's protocol (not the interactive wrapper's
	// "/interactive" name) unless the builder names a variant (BAMBOO
	// d=0.15, -O1 reads, BAMBOO+mvcc, …), which must stay distinguishable in
	// tables and in the JSON document.
	res.Report.Protocol = e.Name()
	if b.name != "" {
		res.Report.Protocol = b.name
	}
	res.Report.LoadTime = loadTime
	// Durability telemetry from the DB's log devices, read before Close so
	// the numbers are the steady-state run's (no shutdown sync).
	db.FillStorage(&res.Report)
	return res.Report
}

// The loader factories take the point's Scale so an explicit -seed
// reaches every workload's RNGs; a seed already set on the config (an
// experiment pinning its own streams) wins over the Scale's.

func synthLoader(s Scale, cfg synth.Config) func(db *core.DB) (core.Generator, error) {
	if cfg.Seed == 0 {
		cfg.Seed = s.Seed
	}
	return func(db *core.DB) (core.Generator, error) {
		w, err := synth.Load(db, cfg)
		if err != nil {
			return nil, err
		}
		return w.Generator(), nil
	}
}

func ycsbLoader(s Scale, cfg ycsb.Config) func(db *core.DB) (core.Generator, error) {
	if cfg.Seed == 0 {
		cfg.Seed = s.Seed
	}
	return func(db *core.DB) (core.Generator, error) {
		w, err := ycsb.Load(db, cfg)
		if err != nil {
			return nil, err
		}
		return w.Generator(), nil
	}
}

// tpccLoader's mix picks the transaction set: (*tpcc.Workload).Generator
// for the row engines, IC3Generator for IC3's chopped templates.
func tpccLoader(s Scale, cfg tpcc.Config, mix func(*tpcc.Workload) core.Generator) func(db *core.DB) (core.Generator, error) {
	if cfg.Seed == 0 {
		cfg.Seed = s.Seed
	}
	return func(db *core.DB) (core.Generator, error) {
		w, err := tpcc.Load(db, cfg)
		if err != nil {
			return nil, err
		}
		return mix(w), nil
	}
}

// Fig1Schedules demonstrates Figure 1: three transactions that write the
// hotspot A at their start and then do independent work. Under 2PL the
// makespan is ~3 transaction lengths; under Bamboo the hotspot serializes
// only for its own duration and the rest overlaps (the "ideal" schedule);
// OCC (Silo) aborts and restarts the laggards.
func Fig1Schedules(s Scale) []Point {
	cfg := synth.Config{Rows: 4096, TxnLen: 16, HotspotPos: []float64{0}}
	sc := s
	sc.Duration = 0
	return runSeries(sc, "3 concurrent writers of hotspot A", []engineBuilder{
		lockBuilder(core.WoundWait()),
		siloBuilder(),
		lockBuilder(core.Bamboo()),
	}, false, synthLoader(s, cfg), 3)
}

// Sec52SingleHotspot reproduces the §5.2 text numbers: one
// read-modify-write hotspot at the beginning plus random reads.
func Sec52SingleHotspot(s Scale) []Point {
	cfg := synth.Config{Rows: s.Rows, TxnLen: 16, HotspotPos: []float64{0}}
	threads := s.threads()
	t := threads[len(threads)-1]
	return runSeries(s, fmt.Sprintf("%d threads", t), standardBuilders(), false, synthLoader(s, cfg), t)
}

// Fig3aSpeedup sweeps thread count and transaction length, reporting
// Bamboo and Wound-Wait throughput (the paper plots their ratio).
func Fig3aSpeedup(s Scale) []Point {
	var points []Point
	for _, txnLen := range []int{4, 16, 64} {
		cfg := synth.Config{Rows: s.Rows, TxnLen: txnLen, HotspotPos: []float64{0}}
		for _, t := range s.threads() {
			x := fmt.Sprintf("len=%d threads=%d", txnLen, t)
			points = append(points, runSeries(s, x, []engineBuilder{lockBuilder(core.Bamboo()), lockBuilder(core.WoundWait())}, false, synthLoader(s, cfg), t)...)
		}
	}
	return points
}

// Fig3bHotspotPosition sweeps the hotspot position within the
// transaction.
func Fig3bHotspotPosition(s Scale) []Point {
	var points []Point
	threads := maxThreads(s)
	for _, pos := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		cfg := synth.Config{Rows: s.Rows, TxnLen: 16, HotspotPos: []float64{pos}}
		x := fmt.Sprintf("position=%.2f", pos)
		points = append(points, runSeries(s, x, []engineBuilder{lockBuilder(core.Bamboo()), lockBuilder(core.WoundWait())}, false, synthLoader(s, cfg), threads)...)
	}
	return points
}

// Fig4SecondHotspot fixes one hotspot at the beginning and sweeps the
// second one's distance; BAMBOO-base (no Optimization 2) is included as
// in the paper.
func Fig4SecondHotspot(s Scale) []Point {
	return twoHotspots(s, func(d float64) []float64 { return []float64{0, d} }, "distance")
}

// Fig5FirstHotspot fixes the second hotspot at the end and sweeps the
// first one's distance from it.
func Fig5FirstHotspot(s Scale) []Point {
	return twoHotspots(s, func(d float64) []float64 { return []float64{1 - d, 1} }, "distance")
}

func twoHotspots(s Scale, pos func(float64) []float64, label string) []Point {
	var points []Point
	threads := maxThreads(s)
	for _, d := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		cfg := synth.Config{Rows: s.Rows, TxnLen: 16, HotspotPos: pos(d)}
		x := fmt.Sprintf("%s=%.2f", label, d)
		points = append(points, runSeries(s, x, []engineBuilder{
			lockBuilder(core.BambooBase()),
			lockBuilder(core.Bamboo()),
			lockBuilder(core.WoundWait()),
		}, false, synthLoader(s, cfg), threads)...)
	}
	return points
}

// Fig6YCSBThreads sweeps threads on high-contention YCSB.
func Fig6YCSBThreads(s Scale) []Point {
	cfg := ycsb.DefaultConfig()
	cfg.Rows = s.Rows
	cfg.Theta = 0.9
	var points []Point
	for _, t := range s.threads() {
		x := fmt.Sprintf("threads=%d", t)
		points = append(points, runSeries(s, x, standardBuilders(), false, ycsbLoader(s, cfg), t)...)
	}
	return points
}

// Fig7LongReadOnly adds 5% read-only transactions of 1000 tuples.
func Fig7LongReadOnly(s Scale) []Point {
	cfg := ycsb.DefaultConfig()
	cfg.Rows = s.Rows
	cfg.Theta = 0.9
	cfg.LongReadFrac = 0.05
	cfg.LongReadOps = min(1000, s.Rows/4)
	var points []Point
	for _, t := range s.threads() {
		x := fmt.Sprintf("threads=%d", t)
		points = append(points, runSeries(s, x, standardBuilders(), false, ycsbLoader(s, cfg), t)...)
	}
	return points
}

// Fig8YCSBZipf sweeps the Zipfian theta in stored-procedure and
// interactive modes.
func Fig8YCSBZipf(s Scale) []Point {
	var points []Point
	threads := maxThreads(s)
	for _, mode := range []bool{false, true} {
		for _, theta := range []float64{0.5, 0.7, 0.8, 0.9, 0.99} {
			cfg := ycsb.DefaultConfig()
			cfg.Rows = s.Rows
			cfg.Theta = theta
			label := "stored-proc"
			if mode {
				label = "interactive"
			}
			x := fmt.Sprintf("%s theta=%.2f", label, theta)
			points = append(points, runSeries(s, x, standardBuilders(), mode, ycsbLoader(s, cfg), threads)...)
		}
	}
	return points
}

// Fig9TPCCThreads sweeps threads on 1-warehouse TPC-C in both modes.
func Fig9TPCCThreads(s Scale) []Point {
	cfg := tpcc.DefaultConfig()
	var points []Point
	for _, mode := range []bool{false, true} {
		label := "stored-proc"
		if mode {
			label = "interactive"
		}
		for _, t := range s.threads() {
			x := fmt.Sprintf("%s threads=%d", label, t)
			points = append(points, runSeries(s, x, standardBuilders(), mode, tpccLoader(s, cfg, (*tpcc.Workload).Generator), t)...)
		}
	}
	return points
}

// Fig10TPCCWarehouses sweeps the warehouse count at fixed threads.
func Fig10TPCCWarehouses(s Scale) []Point {
	var points []Point
	threads := maxThreads(s)
	for _, mode := range []bool{false, true} {
		label := "stored-proc"
		if mode {
			label = "interactive"
		}
		for _, wh := range []int{16, 8, 4, 2, 1} {
			cfg := tpcc.DefaultConfig()
			cfg.Warehouses = wh
			x := fmt.Sprintf("%s warehouses=%d", label, wh)
			points = append(points, runSeries(s, x, standardBuilders(), mode, tpccLoader(s, cfg, (*tpcc.Workload).Generator), threads)...)
		}
	}
	return points
}

// Fig11IC3 compares Bamboo, IC3, Wound-Wait and Silo on 1-warehouse TPC-C
// with the original and the modified (W_YTD-reading) NewOrder.
func Fig11IC3(s Scale) []Point {
	var points []Point
	for _, modified := range []bool{false, true} {
		variant := "original"
		if modified {
			variant = "modified"
		}
		for _, t := range s.threads() {
			x := fmt.Sprintf("%s threads=%d", variant, t)
			cfg := tpcc.DefaultConfig()
			cfg.ModifiedNewOrder = modified
			points = append(points, runSeries(s, x, []engineBuilder{
				lockBuilder(core.Bamboo()),
				lockBuilder(core.WoundWait()),
				siloBuilder(),
			}, false, tpccLoader(s, cfg, (*tpcc.Workload).Generator), t)...)
			points = append(points, runSeries(s, x, []engineBuilder{ic3Builder()},
				false, tpccLoader(s, cfg, (*tpcc.Workload).IC3Generator), t)...)
		}
	}
	return points
}

// DeltaSweep measures the effect of Optimization 2's delta parameter
// (§5.1 reports <13% spread and settles on 0.15).
func DeltaSweep(s Scale) []Point {
	cfg := synth.Config{Rows: s.Rows, TxnLen: 16, HotspotPos: []float64{0, 1}}
	var builders []engineBuilder
	for _, delta := range []float64{0, 0.05, 0.15, 0.3, 0.5, 1.0} {
		c := core.Bamboo()
		c.Delta = delta
		b := lockBuilder(c)
		b.name = fmt.Sprintf("BAMBOO d=%.2f", delta)
		builders = append(builders, b)
	}
	return runSeries(s, "delta sweep", builders, false, synthLoader(s, cfg), maxThreads(s))
}

// Ablation toggles each Bamboo optimization off in turn on
// high-contention YCSB, quantifying the design choices of §3.5.
func Ablation(s Scale) []Point {
	cfg := ycsb.DefaultConfig()
	cfg.Rows = s.Rows
	cfg.Theta = 0.9
	threads := maxThreads(s)

	mk := func(name string, mod func(*core.Config)) engineBuilder {
		c := core.Bamboo()
		mod(&c)
		b := lockBuilder(c)
		b.name = name
		return b
	}
	builders := []engineBuilder{
		mk("BAMBOO(full)", func(*core.Config) {}),
		mk("-O1 reads", func(c *core.Config) { c.RetireReads = false; c.NoWoundRead = false }),
		mk("-O2 delta", func(c *core.Config) { c.Delta = 0 }),
		mk("-O3 nowound", func(c *core.Config) { c.NoWoundRead = false }),
		mk("-O4 dynts", func(c *core.Config) { c.DynamicTS = false }),
		// A Bamboo that retires nothing is Wound-Wait (§3.4); O4 stays on.
		mk("-retire(=WW)", func(c *core.Config) { *c = core.WoundWait(); c.DynamicTS = true }),
	}
	return runSeries(s, fmt.Sprintf("ycsb theta=0.9 threads=%d", threads), builders, false, ycsbLoader(s, cfg), threads)
}

// ScalingSweep stresses the runtime under maximum hotspot contention: a
// thread ladder on the one-hotspot workload — every transaction
// read-modify-writes one hot tuple at its start, then does independent
// work — in interactive mode (one RTT per operation), comparing Bamboo
// against Wound-Wait. This is
// the setting of the paper's §5.2/Figure 8 story chosen for a reason:
// with per-operation stalls, 2PL holds the hotspot for the whole
// transaction (TxnLen × RTT) while Bamboo retires it after the first
// operation, so the winner is decided by the protocol rather than by
// scheduler luck and the series is stable enough to gate on regardless
// of the host's core count. Expect Bamboo to scale near-linearly up the
// ladder while Wound-Wait flattens at ~1/(TxnLen×RTT).
func ScalingSweep(s Scale) []Point {
	// Contention requires concurrency: fixed-count points degenerate on
	// small hosts (a worker can finish its whole quota inside one
	// scheduling quantum, so nothing ever conflicts). Force wall-clock
	// points, which keep every worker alive for the whole window.
	if s.Duration == 0 {
		s.Duration = 150 * time.Millisecond
	}
	cfg := synth.Config{Rows: s.Rows, TxnLen: 32, HotspotPos: []float64{0}}
	builders := []engineBuilder{lockBuilder(core.Bamboo()), lockBuilder(core.WoundWait())}
	var points []Point
	for _, t := range scalingThreads(s) {
		x := fmt.Sprintf("threads=%d", t)
		points = append(points, runSeries(s, x, builders, true, synthLoader(s, cfg), t)...)
	}
	return points
}

// UpgradeSweep measures the SH→EX upgrade path on the contended
// read-modify-write hotspot shape (the TXSQL-style pattern): high-skew
// YCSB where a swept fraction of the updates is issued un-annotated —
// the transaction reads the row and only then updates it, so the
// executor must upgrade the shared lock in place. BAMBOO (retiring the
// upgraded write early) is compared against WOUND_WAIT and NO_WAIT; at
// rmw=0 the series coincides with the declared-write workload, so the
// sweep isolates what upgrades themselves cost each protocol. No-wait
// upgrade conflicts are symmetric — two readers of the same row both fail
// their upgrade — and NO_WAIT's default abort backoff
// (core.DefaultAbortBackoff) is what keeps them from chasing each other.
func UpgradeSweep(s Scale) []Point {
	threads := maxThreads(s)
	builders := []engineBuilder{
		lockBuilder(core.Bamboo()),
		lockBuilder(core.WoundWait()),
		lockBuilder(core.NoWait()),
	}
	var points []Point
	for _, rmw := range []float64{0, 0.5, 1.0} {
		cfg := ycsb.DefaultConfig()
		cfg.Rows = s.Rows
		cfg.Theta = 0.9
		cfg.RMWFrac = rmw
		x := fmt.Sprintf("rmw=%.2f threads=%d", rmw, threads)
		points = append(points, runSeries(s, x, builders, false, ycsbLoader(s, cfg), threads)...)
	}
	return points
}

// PartitionSweep measures throughput vs storage partition count on
// high-contention YCSB at fixed theta: the skew (and thus the protocol
// contention) is pinned while the table is split 1→8 ways, so the sweep
// isolates what partitioning itself buys — parallel loading (LoadTime in
// the JSON document), smaller per-partition indexes — from what it cannot
// (the hot tuples stay hot; partition routing must cost nothing). The
// per-partition access counters captured with each point show the hash
// partitioner keeping accesses balanced even at theta=0.9, because
// Zipfian-hot keys scatter across partitions.
//
// An explicit -partitions value pins the sweep to that single count
// (mirroring how an explicit -threads sweep replaces built-in ladders),
// so the flag is never silently overridden and the document's scale
// block stays truthful; the default is the 1→8 ladder.
func PartitionSweep(s Scale) []Point {
	threads := maxThreads(s)
	cfg := ycsb.DefaultConfig()
	cfg.Rows = s.Rows
	cfg.Theta = 0.9
	builders := []engineBuilder{
		lockBuilder(core.Bamboo()),
		lockBuilder(core.WoundWait()),
	}
	ladder := []int{1, 2, 4, 8}
	if s.Partitions > 0 {
		ladder = []int{s.Partitions}
	}
	var points []Point
	for _, parts := range ladder {
		sc := s
		sc.Partitions = parts
		x := fmt.Sprintf("partitions=%d threads=%d", parts, threads)
		points = append(points, runSeries(sc, x, builders, false, ycsbLoader(s, cfg), threads)...)
	}
	return points
}

// DurabilitySweep measures the durability pipeline on real file devices:
// YCSB at medium contention (theta 0.6, so the log — not the lock table —
// is the bottleneck under test) over per-partition WAL files, sweeping
// the fsync policy at 1, 2 and 4 partitions. The series isolate what each
// mechanism buys:
//
//   - fsync=batch    every commit durable before it returns; each
//     device's syncer shares one fsync among the commits it covers, so
//     fsyncs/txn (WALSyncs/Commits) must stay well below 1;
//   - fsync=interval at most one fsync per millisecond per device and no
//     commit waits for it (bounded loss at a bounded sync rate);
//   - fsync=none     page-cache writes only — the write-path cost floor.
//
// Partitions multiply the independent logs: at P partitions there are P
// devices and P syncers, and a commit that spans partitions waits for
// their syncs in parallel. Each point's wal_appends/wal_syncs/fsync_ns
// land in the JSON document. An explicit -partitions pins the ladder to
// that single count, as in the partition sweep.
//
// Absolute numbers depend on the device behind the temp dir (tmpfs vs
// SSD vs spinning disk — EXPERIMENTS.md records both ends); the shape to
// reproduce is fsync=batch staying within a small factor of fsync=none
// on a device whose fsync is slow.
func DurabilitySweep(s Scale) []Point {
	threads := maxThreads(s)
	cfg := ycsb.DefaultConfig()
	cfg.Rows = s.Rows
	cfg.Theta = 0.6

	mk := func(name string, policy wal.FsyncPolicy, ckpt bool) engineBuilder {
		return engineBuilder{name: name, make: func(partitions int) (core.Engine, *core.DB, func()) {
			dir, err := os.MkdirTemp("", "bamboo-durability-")
			if err != nil {
				panic(fmt.Sprintf("bench: wal temp dir: %v", err))
			}
			c := core.Bamboo()
			c.Partitions = partitions
			c.WALDir = dir
			c.WALFsync = policy
			if ckpt {
				// The full lifecycle: a tight interval so several fuzzy
				// snapshots land inside even a quick-scale point, small
				// segments so truncation has boundaries to cut at, and
				// truncation on — this point's checkpoint_ns and
				// log_bytes_live quantify what keeping the log bounded
				// costs over plain fsync=batch.
				c.Checkpoint = core.CheckpointConfig{
					Dir:          filepath.Join(dir, "ckpt"),
					Interval:     100 * time.Millisecond,
					SegmentBytes: 1 << 20,
					Truncate:     true,
				}
			}
			db := core.NewDB(c)
			return core.NewLockEngine(db), db, func() {
				db.Close()
				os.RemoveAll(dir)
			}
		}}
	}
	builders := []engineBuilder{
		mk("fsync=batch", wal.FsyncBatch, false),
		mk("fsync=batch+ckpt", wal.FsyncBatch, true),
		mk("fsync=interval", wal.FsyncInterval, false),
		mk("fsync=none", wal.FsyncNone, false),
	}
	ladder := []int{1, 2, 4}
	if s.Partitions > 0 {
		ladder = []int{s.Partitions}
	}
	var points []Point
	for _, parts := range ladder {
		sc := s
		sc.Partitions = parts
		x := fmt.Sprintf("partitions=%d threads=%d", parts, threads)
		points = append(points, runSeries(sc, x, builders, false, ycsbLoader(s, cfg), threads)...)
	}
	return points
}

// ReadMVCCSweep measures what the lock-free snapshot read path buys on
// read-heavy skewed YCSB: transactions are declared read-only with
// probability f (the swept fraction) and the rest keep the default 50/50
// read/update mix, at theta 0.6 (moderate skew) and 0.9 (the
// high-contention hot set). BAMBOO+mvcc serves the read-only
// transactions at a snapshot — zero lock acquisitions, zero aborts —
// while plain BAMBOO runs the identical plans through shared locks, so
// the gap between the two series is exactly the cost of read locking
// (acquire/release latching, wound-induced aborts of readers, and
// readers queueing behind writers' exclusive holds).
//
// Expected shape: the series converge at low f and theta 0.6 (few
// read-only transactions, little contention to dodge) and diverge as
// both rise; at f≥0.9, theta 0.9 MVCC wins on throughput and the
// writers' tail latency must not regress — the snapshot_reads /
// versions_pruned / version_chain_max fields in the document confirm
// the path actually served reads and pruning kept chains bounded. An
// explicit -readonly-frac pins the ladder to that single fraction.
func ReadMVCCSweep(s Scale) []Point {
	threads := maxThreads(s)
	mvccCfg := core.Bamboo()
	mvccCfg.MVCC = true
	mvccBuilder := lockBuilder(mvccCfg)
	mvccBuilder.name = "BAMBOO+mvcc"
	builders := []engineBuilder{
		mvccBuilder,
		lockBuilder(core.Bamboo()),
	}
	fracs := []float64{0.5, 0.9, 0.95, 1.0}
	if s.ReadOnlyFrac > 0 {
		fracs = []float64{s.ReadOnlyFrac}
	}
	var points []Point
	for _, theta := range []float64{0.6, 0.9} {
		for _, frac := range fracs {
			cfg := ycsb.DefaultConfig()
			cfg.Rows = s.Rows
			cfg.Theta = theta
			cfg.ReadOnlyFrac = frac
			x := fmt.Sprintf("ro=%.2f theta=%.2f threads=%d", frac, theta, threads)
			points = append(points, runSeries(s, x, builders, false, ycsbLoader(s, cfg), threads)...)
		}
	}
	return points
}

// scalingThreads is the ladder for ScalingSweep: an explicit -threads
// sweep (or any multi-point one) wins; otherwise powers of two up to
// max(16, 2×GOMAXPROCS), so the sweep reaches contention territory even
// at Quick scale and on small CI hosts, where the default sweeps stop at
// a handful of workers.
func scalingThreads(s Scale) []int {
	if s.ThreadsExplicit || len(s.Threads) > 1 {
		return s.Threads
	}
	top := 2 * runtime.GOMAXPROCS(0)
	if top < 16 {
		top = 16
	}
	var ts []int
	for t := 1; t <= top; t *= 2 {
		ts = append(ts, t)
	}
	return ts
}

func maxThreads(s Scale) int {
	ts := append([]int(nil), s.threads()...)
	sort.Ints(ts)
	return ts[len(ts)-1]
}
