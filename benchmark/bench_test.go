package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// declaration is BENCHMARK.json as the driver reads it.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readDeclaration(t *testing.T) declaration {
	t.Helper()
	var d declaration
	if err := readJSON("../BENCHMARK.json", &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func names(ds []declared) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

// TestDeclarationMatchesCode pins BENCHMARK.json to the metric and workload
// tables: names, units, directions, bounds and whys.
func TestDeclarationMatchesCode(t *testing.T) {
	d := readDeclaration(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, code has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.Name || d.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)",
				i, d.Workloads[i].Name, d.Workloads[i].Why, w.Name, w.Why)
		}
	}
	var wantE2E, wantLayer []declared
	for _, m := range endToEnd {
		if m.Ungated {
			wantLayer = append(wantLayer, declared{Name: m.Name, Unit: m.Unit, Better: m.Better})
		} else {
			wantE2E = append(wantE2E, declared{m.Name, m.Unit, m.Better, m.Bound})
		}
	}
	for _, m := range perLayer {
		wantLayer = append(wantLayer, declared{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	check := func(kind string, got, want []declared) {
		byName := map[string]declared{}
		for _, g := range got {
			byName[g.Name] = g
		}
		if len(byName) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, code has %d", kind, len(byName), len(want))
		}
		for _, w := range want {
			if g, ok := byName[w.Name]; !ok || g != w {
				t.Errorf("%s %s: BENCHMARK.json has %+v, code has %+v", kind, w.Name, g, w)
			}
		}
	}
	check("end_to_end", d.EndToEnd, wantE2E)
	check("per_layer", d.PerLayer, wantLayer)
}

// TestSmoke drives every workload through the timed, traced and probe paths
// at toy scale and checks what the driver and a reader would see.
func TestSmoke(t *testing.T) {
	d := readDeclaration(t)
	p := newPlan(1, 15, modeFull, true)
	p.outDir = t.TempDir()
	res, err := runSet(workloads, p)
	if err != nil {
		t.Fatal(err)
	}
	var printed bytes.Buffer
	res.print(&printed)

	if len(res.Workloads) != len(d.Workloads) {
		t.Fatalf("ran %d workloads, BENCHMARK.json declares %d", len(res.Workloads), len(d.Workloads))
	}
	for i, wr := range res.Workloads {
		if wr.Name != d.Workloads[i].Name {
			t.Errorf("workload %d is %s, BENCHMARK.json declares %s", i, wr.Name, d.Workloads[i].Name)
		}
		if !strings.Contains(printed.String(), "== "+wr.Name+" ==") {
			t.Errorf("printer does not name workload %s", wr.Name)
		}
		if wr.ErrorRate != 0 || wr.Failed != 0 {
			t.Errorf("%s: error_rate %v, problems %v", wr.Name, wr.ErrorRate, wr.Problems)
		}
		if wr.Attempted == 0 || wr.EndToEnd["throughput_tps"].Value <= 0 {
			t.Errorf("%s: nothing committed (%d attempted)", wr.Name, wr.Attempted)
		}
		if c := wr.PerLayer["trace.coverage_frac"].Value; c <= 0.5 || c > 1.05 {
			t.Errorf("%s: trace.coverage_frac = %v, want in (0.5, 1.05]", wr.Name, c)
		}
		// What the driver reads with -trace 0 and -trace 1 is exactly what
		// BENCHMARK.json declares, and the printer names all of it.
		for mode, want := range map[int][]declared{modeTimed: d.EndToEnd, modeTraced: d.PerLayer} {
			var line struct {
				Correct bool                `json:"correct"`
				Metrics map[string]measured `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(wr.contractLine(mode)), &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct {
				t.Errorf("%s -trace %d: correct is false", wr.Name, mode)
			}
			got, wantNames := sortedKeys(line.Metrics), names(want)
			if strings.Join(got, " ") != strings.Join(wantNames, " ") {
				t.Errorf("%s -trace %d prints\n%v\nBENCHMARK.json declares\n%v", wr.Name, mode, got, wantNames)
			}
			for _, m := range want {
				if line.Metrics[m.Name].Unit != m.Unit {
					t.Errorf("%s %s: unit %q, declared %q", wr.Name, m.Name, line.Metrics[m.Name].Unit, m.Unit)
				}
				if !strings.Contains(printed.String(), "   "+m.Name+" ") {
					t.Errorf("printer does not name metric %s", m.Name)
				}
			}
		}
	}
	if res.Workloads[0].SpeedupVsWW <= 0 {
		t.Error("speedup_vs_ww missing on hotspot")
	}
	if ycsb := res.Workloads[3].PerLayer; ycsb["storage.snapshot_reads"].Value == 0 {
		t.Error("ycsb_snapshot traced no snapshot reads: MarkReadOnly is not reaching the engine")
	}
	if tpcc := res.Workloads[4].PerLayer; tpcc["core.recover_s"].Value <= 0 || tpcc["wal.append_ns"].Value <= 0 {
		t.Errorf("tpcc_wal ledger lacks recovery or log appends: %+v %+v", tpcc["core.recover_s"], tpcc["wal.append_ns"])
	}

	// A smoke result must not be mistaken for a measurement.
	if !res.Smoke {
		t.Fatal("result not stamped smoke")
	}
	path := filepath.Join(t.TempDir(), "smoke.json")
	if err := res.write(path); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := runCompare("../BENCHMARK.json", []string{path, path}, &out); code != 2 {
		t.Errorf("-compare accepted a smoke result (exit %d):\n%s", code, out.String())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
	q1, med, q3 := quartiles([]float64{5, 1, 4, 2, 3})
	if q1 != 1.5 || med != 3 || q3 != 4.5 {
		t.Errorf("quartiles = %v %v %v, want 1.5 3 4.5", q1, med, q3)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 = quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

// TestReportedStatistic pins what a run reports over its windows and how a
// latency quantile is read from the raw samples.
func TestReportedStatistic(t *testing.T) {
	windows := []float64{5, 1, 4, 2, 3} // quartiles 1.5, 3, 4.5
	for _, c := range []struct {
		m    metric
		want float64
	}{
		{metric{Better: "higher", BestQuartile: true}, 4.5},
		{metric{Better: "lower", BestQuartile: true}, 1.5},
		{metric{Better: "lower"}, 3},
	} {
		if got := newSeries(c.m, windows).Value; got != c.want {
			t.Errorf("%+v reports %v, want %v", c.m, got, c.want)
		}
	}
	sorted := []uint32{10, 20, 30, 40, 50}
	for q, want := range map[float64]float64{0: 10, 0.5: 30, 0.9: 46, 1: 50} {
		if got := quantile(sorted, q); math.Abs(got-want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}

func TestCompare(t *testing.T) {
	steady := func(v float64) series { return series{Value: v, Median: v, Q1: v * 0.99, Q3: v * 1.01} }
	noisy := func(v float64) series { return series{Value: v, Median: v, Q1: v * 0.8, Q3: v * 1.2} }
	for _, c := range []struct {
		name     string
		a, b     series
		better   string
		bound    float64
		absFloor float64
		want     string
	}{
		{"within bound", steady(100), steady(95), "higher", 0.10, 0, verdictOK},
		{"throughput drop", steady(100), steady(85), "higher", 0.10, 0, verdictWorse},
		{"latency rise", steady(10), steady(12), "lower", 0.15, 0, verdictWorse},
		{"latency fall", steady(10), steady(5), "lower", 0.15, 0, verdictOK},
		{"noise wider than bound", noisy(100), noisy(95), "higher", 0.10, 0, verdictUnresolved},
		{"drop beyond the noise", noisy(100), steady(40), "higher", 0.10, 0, verdictWorse},
		{"allocs under the floor", steady(1.0), steady(1.3), "lower", 0.10, 0.5, verdictOK},
		{"allocs over the floor", steady(1.0), steady(1.7), "lower", 0.10, 0.5, verdictWorse},
	} {
		if got, _, _ := judge(c.a, c.b, c.better, c.bound, c.absFloor); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}

	// Whole files: a run agrees with itself, a halved throughput is worse,
	// and results from different seeds are refused.
	mk := func(seed int64, tps float64) string {
		wr := &workloadResult{Name: "hotspot", EndToEnd: map[string]series{}}
		for _, m := range endToEnd {
			wr.EndToEnd[m.Name] = steady(10)
		}
		wr.EndToEnd["throughput_tps"] = steady(tps)
		path := filepath.Join(t.TempDir(), "r.json")
		if err := (&results{Host: host{NumCPU: 2, Workers: 2, Seed: seed}, Workloads: []*workloadResult{wr}}).write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, c := range []struct {
		a, b string
		want int
	}{
		{mk(1, 1000), mk(1, 1000), 0},
		{mk(1, 1000), mk(1, 500), 1},
		{mk(1, 1000), mk(2, 1000), 2},
	} {
		var out bytes.Buffer
		if code := runCompare("../BENCHMARK.json", []string{c.a, c.b}, &out); code != c.want {
			t.Errorf("exit %d, want %d:\n%s", code, c.want, out.String())
		}
	}
}
