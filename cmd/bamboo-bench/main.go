// Command bamboo-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	bamboo-bench -list
//	bamboo-bench -exp fig6
//	bamboo-bench -exp all -threads 1,2,4,8,16,32 -duration 1s
//	bamboo-bench -exp fig6 -quick -json -out BENCH_fig6.json
//	bamboo-bench -exp all -csv -out results.csv
//	bamboo-bench -exp fig6 -quick -cpuprofile cpu.prof   (also -mutexprofile, -blockprofile)
//
// By default each experiment prints one block per x-axis value with one
// line per protocol: throughput, abort rate, the amortized per-
// transaction time breakdown (lock wait / commit wait / abort / useful)
// and latency percentiles, matching the series the paper plots.
// EXPERIMENTS.md records the measured shapes against the paper's.
//
// With -json the run is emitted as a schema-versioned document
// (internal/bench/report) carrying every field of the run summary
// (stats.Report) per point — the BENCH_*.json artifact CI uploads. -csv
// emits the same points as one flat table. -out directs either format to
// a file; without it the document goes to stdout and the human-readable
// table moves to stderr so piping stays clean.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"bamboo/internal/bench"
	"bamboo/internal/bench/report"
	"bamboo/internal/telemetry"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id (see -list), or 'all'")
		list     = flag.Bool("list", false, "list experiments")
		threads  = flag.String("threads", "", "comma-separated worker sweep (default: powers of two up to 2×GOMAXPROCS)")
		duration = flag.Duration("duration", 400*time.Millisecond, "wall-clock budget per data point (0 = fixed transaction count)")
		txns     = flag.Int("txns", 2000, "transactions per worker per point when -duration=0")
		rows     = flag.Int("rows", 100000, "table rows for synthetic/YCSB workloads")
		rtt      = flag.Duration("rtt", 100*time.Microsecond, "interactive-mode round trip per operation")
		parts    = flag.Int("partitions", 0, "storage partition count for every point's tables (0/1 = flat single-partition layout; survives -quick)")
		roFrac   = flag.Float64("readonly-frac", 0, "pin the readmvcc experiment's read-only-fraction ladder to this value in (0,1] (0 = built-in 0.5/0.9/0.95/1.0 sweep; survives -quick)")
		seed     = flag.Int64("seed", 0, "fixed workload RNG seed for every point's loader and generators, so A/B runs see identical key streams (0 = built-in seeding; survives -quick)")
		repeat   = flag.Int("repeat", 0, "run every point this many times and report the median sample (0 = once, or the quick scale's built-in 5)")
		quick    = flag.Bool("quick", false, "use the small CI smoke scale (overrides -threads/-duration/-txns/-rows/-rtt)")
		jsonOut  = flag.Bool("json", false, "emit the schema-versioned JSON result document")
		csvOut   = flag.Bool("csv", false, "emit results as one flat CSV table")
		out      = flag.String("out", "", "write -json/-csv output to this file instead of stdout")
		metrics  = flag.String("metrics-addr", "", "serve live telemetry (/metrics, /debug/vars, /healthz) on this address for the whole run; \":0\" picks a free port (printed to stderr)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the experiments to this file")
		mutProf  = flag.String("mutexprofile", "", "write a mutex-contention profile of the experiments to this file (every contended unlock is recorded: slows the run)")
		blkProf  = flag.String("blockprofile", "", "write a goroutine-blocking profile of the experiments to this file (every blocking event is recorded: slows the run)")
	)
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range bench.All() {
			fmt.Printf("  %-8s %s\n", e.ID, e.Title)
		}
		if *exp == "" {
			os.Exit(0)
		}
	}
	if *jsonOut && *csvOut {
		fmt.Fprintln(os.Stderr, "-json and -csv are mutually exclusive")
		os.Exit(2)
	}
	if *out != "" && !*jsonOut && !*csvOut {
		fmt.Fprintln(os.Stderr, "-out requires -json or -csv")
		os.Exit(2)
	}

	if *parts < 0 {
		fmt.Fprintf(os.Stderr, "bad -partitions value %d\n", *parts)
		os.Exit(2)
	}
	if *roFrac < 0 || *roFrac > 1 {
		fmt.Fprintf(os.Stderr, "bad -readonly-frac value %g (want 0..1)\n", *roFrac)
		os.Exit(2)
	}

	var s bench.Scale
	if *quick {
		s = bench.Quick()
	} else {
		s = bench.Full()
		s.Duration = *duration
		s.TxnsPerWorker = *txns
		s.Rows = *rows
		s.RTT = *rtt
		if *threads != "" {
			s.Threads = nil
			s.ThreadsExplicit = true
			for _, part := range strings.Split(*threads, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(part))
				if err != nil || n < 1 {
					fmt.Fprintf(os.Stderr, "bad -threads value %q\n", part)
					os.Exit(2)
				}
				s.Threads = append(s.Threads, n)
			}
		}
	}
	// -partitions, -readonly-frac and -seed compose with -quick: the CI
	// routing-path smoke run is "quick scale, 2 partitions", the MVCC
	// smoke run pins a single read-heavy point the same way, and a pinned
	// seed makes quick-scale A/B comparisons key-stream-identical.
	s.Partitions = *parts
	s.ReadOnlyFrac = *roFrac
	s.Seed = *seed
	if *repeat > 0 {
		s.Repeat = *repeat
	}

	// One process-level registry outlives every benchmark point: each
	// point's DB attaches on creation and detaches on close, so a scraper
	// polling the address sees whichever point is live (bamboo_up 0 in
	// the gaps between points).
	if *metrics != "" {
		reg := telemetry.NewRegistry()
		addr, err := reg.Serve(*metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve -metrics-addr %s: %v\n", *metrics, err)
			os.Exit(1)
		}
		defer reg.Close()
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics\n", addr)
		s.Metrics = reg
	}

	var run []bench.Experiment
	if *exp == "all" {
		run = bench.All()
	} else {
		e := bench.Find(*exp)
		if e == nil {
			// List the valid ids right here: a typo'd -exp in a CI script
			// must fail loudly with the fix on screen, not no-op.
			fmt.Fprintf(os.Stderr, "unknown experiment %q; valid experiments:\n", *exp)
			for _, e := range bench.All() {
				fmt.Fprintf(os.Stderr, "  %-10s %s\n", e.ID, e.Title)
			}
			fmt.Fprintln(os.Stderr, "  all        run every experiment")
			os.Exit(2)
		}
		run = []bench.Experiment{*e}
	}

	// When machine-readable output shares stdout, the table moves to
	// stderr so `bamboo-bench -json | jq` works.
	table := io.Writer(os.Stdout)
	if (*jsonOut || *csvOut) && *out == "" {
		table = os.Stderr
	}

	stopProfiles, err := startProfiles(*cpuProf, *mutProf, *blkProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "start profiles: %v\n", err)
		os.Exit(1)
	}
	doc := report.NewFile(s.ReportScale())
	for _, e := range run {
		start := time.Now()
		rows := e.Run(s)
		took := time.Since(start)
		doc.Experiments = append(doc.Experiments, bench.ToExperiment(e.ID, e.Title, took, rows))
		bench.Print(table, fmt.Sprintf("%s (%s, took %v)", e.ID, e.Title, took.Round(time.Millisecond)), rows)
		fmt.Fprintln(table)
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "write profiles: %v\n", err)
		os.Exit(1)
	}

	if !*jsonOut && !*csvOut {
		return
	}
	switch {
	case *out != "" && *jsonOut:
		err = report.Save(*out, doc)
	case *out != "" && *csvOut:
		err = writeCSVFile(*out, doc)
	case *jsonOut:
		err = report.WriteJSON(os.Stdout, doc)
	default:
		err = report.WriteCSV(os.Stdout, doc)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "write results: %v\n", err)
		os.Exit(1)
	}
	if *out != "" {
		fmt.Fprintf(table, "wrote %s\n", *out)
	}
}

// writeCSVFile writes the CSV to path, surfacing the Close error so a
// short write cannot exit 0.
func writeCSVFile(path string, doc *report.File) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.WriteCSV(f, doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
