package main

import (
	"fmt"
	"io"

	"bamboo/internal/lock"
)

// print writes every metric by name with its unit.
func (res *results) print(out io.Writer) {
	h := res.Host
	fmt.Fprintf(out, "benchmark: seed %d, %d workers on %d CPUs (GOMAXPROCS %d), %s, commit %s\n",
		h.Seed, h.Workers, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.GitCommit)
	if res.Smoke {
		fmt.Fprintln(out, "SMOKE RUN: the numbers below only show that the plumbing works")
	}
	for _, wr := range res.Workloads {
		wr.print(out)
	}
}

func (wr *workloadResult) print(out io.Writer) {
	fmt.Fprintf(out, "\n== %s ==\n   %s\n", wr.Name, wr.Why)
	n := len(wr.LatencySamples.Windows)
	fmt.Fprintf(out, "   end to end: over %d window(s), the better-side quartile of throughput and latencies, else the median [q1 median q3]\n", n)
	row := func(name string, s series) {
		fmt.Fprintf(out, "   %-34s %14.4f %-5s [%.4f %.4f %.4f]\n", name, s.Value, s.Unit, s.Q1, s.Median, s.Q3)
	}
	for _, m := range endToEnd {
		row(m.Name, wr.EndToEnd[m.Name])
	}
	row("latency_samples", wr.LatencySamples)
	fmt.Fprintf(out, "   %-34s %14.6f %-5s (%d failed of %d attempted)\n", "error_rate", wr.ErrorRate, "ratio", wr.Failed, wr.Attempted)
	for _, o := range wr.Oracles {
		fmt.Fprintf(out, "   oracle run on: %s\n", o)
	}
	for _, p := range wr.Problems {
		fmt.Fprintf(out, "   FAILED %s\n", p)
	}
	if wr.SpeedupVsWW != 0 {
		fmt.Fprintf(out, "   %-34s %14.4f %-5s (hotspot / hotspot_ww throughput; informational)\n", "speedup_vs_ww", wr.SpeedupVsWW, "ratio")
	}
	if wr.PerLayer == nil {
		return
	}
	fmt.Fprintf(out, "   per layer: traced run (per committed txn) and probes; spans in %s\n", wr.TraceFile)
	for _, m := range perLayer {
		fmt.Fprintf(out, "   %-42s %14.4f %s\n", m.Name, wr.PerLayer[m.Name].Value, m.Unit)
	}
	wr.printCostStack(out)
}

// printCostStack prices the traced call counts with the probes' ns/op and
// sums them against core.run_ns: what a transaction would cost if every
// layer ran uncontended, single-threaded and cache-warm.
func (wr *workloadResult) printCostStack(out io.Writer) {
	w := findWorkload(wr.Name)
	cfg := w.engine()
	v := func(name string) float64 { return wr.PerLayer[name].Value }
	variant := "ww"
	if cfg.Variant == lock.Bamboo {
		variant = "bamboo"
	}
	reads, updates := v("core.tx_read_calls")-v("storage.snapshot_reads"), v("core.tx_update_calls")
	type line struct {
		probe string
		calls float64
	}
	stack := []line{
		{"txn.ts_alloc_ns", 1},
		{"storage.index_get_ns", v("core.tx_read_calls") + updates},
		{"lock.acquire_release_sh_ns_" + variant, reads},
	}
	if variant == "bamboo" {
		retired := min(v("lock.retires"), updates)
		stack = append(stack,
			line{"lock.acquire_retire_release_ex_ns_bamboo", retired},
			line{"lock.acquire_release_ex_ns_bamboo", updates - retired})
	} else {
		stack = append(stack, line{"lock.acquire_release_ex_ns_ww", updates})
	}
	if cfg.MVCC {
		stack = append(stack,
			line{"storage.version_install_ns", updates},
			line{"storage.version_read_d1_ns", v("storage.snapshot_reads")})
	}
	// The wal probes commit a probeRecWrites × probeRecImage record; scale
	// by the bytes a transaction of this workload logs.
	const probeRecBytes = float64(12 + probeRecWrites*(2+len("probe")+8+4+probeRecImage))
	commit := "wal.commit_mem_ns"
	if w.fileWAL {
		commit = "wal.commit_file_ns"
	}
	stack = append(stack,
		line{commit, v("wal.bytes") / probeRecBytes},
		line{"stats.record_commit_ns", 1})

	fmt.Fprintf(out, "   cost stack: probe ns/op × traced calls per txn\n")
	var sum float64
	for _, l := range stack {
		ns := v(l.probe) * l.calls
		sum += ns
		fmt.Fprintf(out, "   %-42s %8.1f ns × %7.3f = %10.1f ns\n", l.probe, v(l.probe), l.calls, ns)
	}
	fmt.Fprintf(out, "   %-42s %31.1f ns = %.1f %% of core.run_ns\n", "sum", sum, 100*div(sum, v("core.run_ns")))
}
