package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json -compare reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Verdicts of one workload × metric row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares candidate b with baseline a for one metric. worsening is
// the share of a's value by which b's is worse (negative when better). The
// row is worse when that exceeds the bound (and absFloor, in the metric's
// own unit) and also exceeds what either file's own windows vary by;
// unresolved when the windows vary by more than the bound, so neither
// "ok" nor "worse" could be told apart from noise.
func judge(a, b series, better string, bound, absFloor float64) (verdict string, worsening, spread float64) {
	delta := b.Value - a.Value
	if better == "higher" {
		delta = -delta
	}
	worsening = div(delta, a.Value)
	spread = max(div(a.Q3-a.Q1, a.Median), div(b.Q3-b.Q1, b.Median))
	switch {
	case worsening > bound && delta > absFloor && worsening > spread:
		return verdictWorse, worsening, spread
	case spread > bound:
		return verdictUnresolved, worsening, spread
	}
	return verdictOK, worsening, spread
}

// runCompare applies BENCHMARK.json's bounds to two result files and
// returns the process exit code: 0 when no row is worse, 1 when one is,
// 2 when the files cannot be compared.
func runCompare(specPath string, files []string, out io.Writer) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(out, "compare: "+format+"\n", args...)
		return 2
	}
	if len(files) != 2 {
		return fail("want two result files, got %d", len(files))
	}
	var spec benchmarkSpec
	if err := readJSON(specPath, &spec); err != nil {
		return fail("%v", err)
	}
	var a, b results
	for i, dst := range []*results{&a, &b} {
		if err := readJSON(files[i], dst); err != nil {
			return fail("%v", err)
		}
		if dst.Smoke {
			return fail("%s is a -smoke result; its numbers mean nothing", files[i])
		}
		if dst.Mode == modeTraced {
			return fail("%s is a -trace 1 result; it has no timed windows", files[i])
		}
	}
	if a.Host.NumCPU != b.Host.NumCPU || a.Host.Workers != b.Host.Workers || a.Host.Seed != b.Host.Seed {
		return fail("hosts differ: %d CPUs/%d workers/seed %d vs %d CPUs/%d workers/seed %d",
			a.Host.NumCPU, a.Host.Workers, a.Host.Seed, b.Host.NumCPU, b.Host.Workers, b.Host.Seed)
	}
	// The declaration's bounds win; allocs_per_txn, which it cannot bound,
	// keeps the one in the metric table.
	bound := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bound[m.Name] = m.Bound
	}
	byName := map[string]*workloadResult{}
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}

	fmt.Fprintf(out, "%-14s %-16s %14s %14s %9s %8s %7s  %s\n",
		"workload", "metric", "baseline", "candidate", "worsening", "spread", "bound", "verdict")
	code := 0
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		if wb == nil {
			return fail("%s has no workload %s", files[1], wa.Name)
		}
		for _, m := range endToEnd {
			sa, okA := wa.EndToEnd[m.Name]
			sb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB {
				return fail("workload %s lacks metric %s", wa.Name, m.Name)
			}
			if declared, ok := bound[m.Name]; ok {
				m.Bound = declared
			}
			verdict, worsening, spread := judge(sa, sb, m.Better, m.Bound, m.AbsFloor)
			fmt.Fprintf(out, "%-14s %-16s %14.4f %14.4f %+8.1f%% %7.1f%% %6.0f%%  %s\n",
				wa.Name, m.Name, sa.Value, sb.Value, 100*worsening, 100*spread, 100*m.Bound, verdict)
			if verdict == verdictWorse {
				code = 1
			}
		}
		// error_rate must be 0: any rise fails, no bound applies.
		verdict := verdictOK
		if wb.ErrorRate > wa.ErrorRate {
			verdict, code = verdictWorse, 1
		}
		fmt.Fprintf(out, "%-14s %-16s %14.6f %14.6f %9s %8s %7s  %s\n",
			wa.Name, "error_rate", wa.ErrorRate, wb.ErrorRate, "", "", "0", verdict)
	}
	return code
}
