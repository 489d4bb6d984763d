// Command bench-diff compares two benchmark result documents
// (BENCH_*.json, written by bamboo-bench -json) and exits non-zero when
// the second regresses against the first beyond configurable thresholds.
// It is the CI gate that makes "measurably faster" enforceable: every
// perf PR runs the bench, diffs against the stored baseline, and fails
// if throughput dropped or p99 latency rose too far on any point.
//
// Usage:
//
//	bench-diff old.json new.json
//	bench-diff -max-tps-drop 0.05 -max-p99-rise 0.50 old.json new.json
//
// Points are matched by (experiment id, x label, protocol). Points
// missing from the new run are reported but do not fail the gate — as
// long as at least one point still compared. If *nothing* compared and
// baseline points went missing, the gate has become vacuous (renamed
// experiment id or x-label format, wrong file) and bench-diff fails:
// a gate that silently compares zero points is exactly the self-diff
// failure mode the committed baselines exist to prevent. Baseline
// points below -min-commits are skipped as noise. When the two documents
// were recorded with different num_cpu or gomaxprocs, a warning goes to
// stderr: the comparison still runs, but its verdict may be the host's.
//
// Exit status: 0 = no regressions, 1 = regressions found, 2 = usage or
// I/O error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"bamboo/internal/bench/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI — flag parsing, comparison, rendering — returning
// the process exit code so tests can drive the full matrix without
// spawning processes.
func run(args []string, stdout, stderr io.Writer) int {
	def := report.DefaultThresholds()
	fs := flag.NewFlagSet("bench-diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		tpsDrop    = fs.Float64("max-tps-drop", def.ThroughputDrop, "fail when throughput drops by more than this fraction")
		p99Rise    = fs.Float64("max-p99-rise", def.P99Rise, "fail when p99 latency rises by more than this fraction")
		minCommits = fs.Uint64("min-commits", def.MinCommits, "skip baseline points with fewer committed transactions")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: bench-diff [flags] old.json new.json\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}

	old, err := report.Load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	cur, err := report.Load(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if old.NumCPU != cur.NumCPU || old.GOMAXPROCS != cur.GOMAXPROCS {
		fmt.Fprintf(stderr, "WARNING: HOST MISMATCH: baseline recorded with num_cpu=%d gomaxprocs=%d, "+
			"new run with num_cpu=%d gomaxprocs=%d.\n"+
			"WARNING: throughput and latency do not compare across core counts; "+
			"the verdict below may be the host's, not the code's.\n",
			old.NumCPU, old.GOMAXPROCS, cur.NumCPU, cur.GOMAXPROCS)
	}
	fmt.Fprintf(stdout, "baseline %s (%s)  vs  new %s (%s)\n",
		fs.Arg(0), shortSHA(old.GitSHA), fs.Arg(1), shortSHA(cur.GitSHA))
	d := report.Compare(old, cur, report.Thresholds{
		ThroughputDrop: *tpsDrop,
		P99Rise:        *p99Rise,
		MinCommits:     *minCommits,
	})
	d.Print(stdout)
	if d.Compared == 0 && len(d.MissingInNew) > 0 {
		fmt.Fprintln(stdout, "VACUOUS GATE: no baseline point matched the new run "+
			"(renamed experiment/x/protocol keys, or wrong file) — failing")
		return 1
	}
	if !d.OK() {
		return 1
	}
	return 0
}

func shortSHA(sha string) string {
	if len(sha) > 12 {
		return sha[:12]
	}
	return sha
}
