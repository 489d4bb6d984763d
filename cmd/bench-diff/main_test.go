package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bamboo/internal/bench/report"
)

// doc builds a one-experiment document with a single point whose
// throughput, p99 and commit count are given.
func doc(tps float64, p99NS int64, commits uint64) *report.File {
	return &report.File{
		SchemaVersion: report.SchemaVersion,
		Experiments: []report.Experiment{{
			ID:    "fig6",
			Title: "test",
			Points: []report.Point{{
				X:             "threads=4",
				Protocol:      "BAMBOO",
				Commits:       commits,
				ThroughputTPS: tps,
				Latency:       report.Latency{P99: p99NS},
			}},
		}},
	}
}

// onHost returns a copy of f recorded on a host with the given CPU count
// and GOMAXPROCS.
func onHost(f *report.File, numCPU, gomaxprocs int) *report.File {
	g := *f
	g.NumCPU, g.GOMAXPROCS = numCPU, gomaxprocs
	return &g
}

func save(t *testing.T, name string, f *report.File) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := report.Save(path, f); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExitCodeMatrix drives the full CLI through every gate outcome.
func TestExitCodeMatrix(t *testing.T) {
	base := doc(10000, 1_000_000, 5000)
	cases := []struct {
		name string
		old  *report.File
		new  *report.File
		args []string
		exit int
		want string // substring of stdout
		warn string // substring of stderr; empty = stderr must be empty
	}{
		{
			name: "identical passes",
			old:  base, new: base,
			exit: 0, want: "no regressions",
		},
		{
			name: "small drop within threshold passes",
			old:  base, new: doc(9200, 1_000_000, 5000), // -8% < 10%
			exit: 0, want: "no regressions",
		},
		{
			name: "throughput drop fails",
			old:  base, new: doc(8000, 1_000_000, 5000), // -20%
			exit: 1, want: "throughput",
		},
		{
			name: "p99 rise fails",
			old:  base, new: doc(10000, 1_400_000, 5000), // +40% > 25%
			exit: 1, want: "p99",
		},
		{
			name: "both regress still exit 1",
			old:  base, new: doc(8000, 2_000_000, 5000),
			exit: 1, want: "2 regression(s)",
		},
		{
			name: "under-sampled baseline skipped",
			old:  doc(10000, 1_000_000, 10), new: doc(1, 9_000_000_000, 10), // 10 < min-commits 50
			exit: 0, want: "1 skipped below commit floor",
		},
		{
			// Every baseline point unmatched = the gate compares nothing.
			// That is the self-diff vacuousness the committed baselines
			// exist to prevent, so it fails rather than passing silently.
			name: "all points missing fails as vacuous",
			old:  base, new: &report.File{SchemaVersion: report.SchemaVersion},
			exit: 1, want: "VACUOUS GATE",
		},
		{
			name: "partially missing still passes while something compares",
			old: &report.File{SchemaVersion: report.SchemaVersion,
				Experiments: []report.Experiment{{
					ID: "fig6",
					Points: []report.Point{
						{X: "threads=4", Protocol: "BAMBOO", Commits: 5000, ThroughputTPS: 10000, Latency: report.Latency{P99: 1_000_000}},
						{X: "threads=4", Protocol: "GONE", Commits: 5000, ThroughputTPS: 10000, Latency: report.Latency{P99: 1_000_000}},
					}}}},
			new:  base,
			exit: 0, want: "missing: fig6 / threads=4 / GONE",
		},
		{
			name: "custom threshold flags flip the verdict",
			old:  base, new: doc(9200, 1_000_000, 5000), // -8% vs -max-tps-drop 0.05
			args: []string{"-max-tps-drop", "0.05"},
			exit: 1, want: "throughput",
		},
		{
			name: "custom min-commits flips skip into gating",
			old:  doc(10000, 1_000_000, 60), new: doc(100, 1_000_000, 60),
			args: []string{"-min-commits", "10"},
			exit: 1, want: "throughput",
		},
		{
			name: "num_cpu mismatch warns without changing the verdict",
			old:  onHost(base, 1, 1), new: onHost(base, 2, 1),
			exit: 0, want: "no regressions", warn: "HOST MISMATCH",
		},
		{
			name: "gomaxprocs mismatch warns on a failing diff too",
			old:  onHost(base, 2, 1), new: onHost(doc(8000, 1_000_000, 5000), 2, 2),
			exit: 1, want: "throughput", warn: "gomaxprocs=1, new run with num_cpu=2 gomaxprocs=2",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			oldPath := save(t, "old.json", c.old)
			newPath := save(t, "new.json", c.new)
			var stdout, stderr bytes.Buffer
			code := run(append(c.args, oldPath, newPath), &stdout, &stderr)
			if code != c.exit {
				t.Fatalf("exit = %d, want %d\nstdout: %s\nstderr: %s",
					code, c.exit, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), c.want) {
				t.Fatalf("stdout missing %q:\n%s", c.want, stdout.String())
			}
			if c.warn == "" && stderr.Len() != 0 {
				t.Fatalf("unexpected stderr: %s", stderr.String())
			}
			if !strings.Contains(stderr.String(), c.warn) {
				t.Fatalf("stderr missing %q:\n%s", c.warn, stderr.String())
			}
		})
	}
}

// TestUsageAndIOErrors covers the exit-2 paths.
func TestUsageAndIOErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatalf("no args: exit = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "usage:") {
		t.Fatalf("no usage on stderr: %s", stderr.String())
	}

	stderr.Reset()
	if code := run([]string{"-bogus-flag", "a", "b"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad flag: exit = %d, want 2", code)
	}

	stderr.Reset()
	if code := run([]string{"/nonexistent/old.json", "/nonexistent/new.json"}, &stdout, &stderr); code != 2 {
		t.Fatalf("missing files: exit = %d, want 2", code)
	}

	// A schema-version mismatch is an I/O-class error, not a regression.
	good := save(t, "good.json", doc(1000, 1000, 5000))
	bad := doc(1000, 1000, 5000)
	bad.SchemaVersion = report.SchemaVersion + 1
	badPath := save(t, "bad.json", bad)
	stderr.Reset()
	if code := run([]string{good, badPath}, &stdout, &stderr); code != 2 {
		t.Fatalf("schema mismatch: exit = %d, want 2\nstderr: %s", code, stderr.String())
	}
}

// TestRetiredFieldsStillParse: stored trajectories carry per-point fields
// of series the engine no longer has. They must keep loading — a decoder
// switched to DisallowUnknownFields would turn every old document into an
// exit 2.
func TestRetiredFieldsStillParse(t *testing.T) {
	path := save(t, "old.json", doc(10000, 1_000_000, 5000))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	point := m["experiments"].([]any)[0].(map[string]any)["points"].([]any)[0].(map[string]any)
	point["retired_series_total"] = 42
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{path, path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
}
