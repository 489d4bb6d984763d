// Package report writes what bamboo-bench measured: runners
// (internal/bench) produce stats.Report values, and this package wraps
// them in a versioned JSON document (the BENCH_*.json artifact CI
// uploads and greps), a flat CSV, or the human-readable table. A point
// of the document is a stats.Report plus its x-axis label, so the JSON
// keys are the tags declared on stats.Report and nowhere else.
package report

import (
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"bamboo/internal/stats"
)

// SchemaVersion identifies the JSON layout. Bump it on any
// backwards-incompatible change to the structs below or to the tags of
// stats.Report (TestReportDocumentKeys pins the key set). Version 2
// flattened version 1's nested latency_ns / breakdown_ns objects; version
// 3 added truncations and truncated_bytes.
const SchemaVersion = 3

// File is the top-level result document: one benchmark invocation,
// covering one or more experiments at a single scale, annotated with
// enough environment detail to interpret absolute numbers later.
type File struct {
	SchemaVersion int    `json:"schema_version"`
	CreatedAt     string `json:"created_at"` // RFC 3339, UTC
	GitSHA        string `json:"git_sha"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	NumCPU        int    `json:"num_cpu"`

	Scale       Scale        `json:"scale"`
	Experiments []Experiment `json:"experiments"`
}

// Scale mirrors bench.Scale in JSON-friendly units (nanoseconds for
// durations). It is duplicated here rather than imported so the schema
// has no dependency on runner internals.
type Scale struct {
	Threads       []int `json:"threads"`
	TxnsPerWorker int   `json:"txns_per_worker"`
	DurationNS    int64 `json:"duration_ns"`
	Rows          int   `json:"rows"`
	RTTNS         int64 `json:"rtt_ns"`
	// Partitions is the storage partition count (0/absent = 1, the flat
	// layout).
	Partitions int `json:"partitions,omitempty"`
	// ReadOnlyFrac is the pinned read-only-transaction fraction of the
	// readmvcc experiment (0/absent = the experiment's built-in ladder).
	ReadOnlyFrac float64 `json:"readonly_frac,omitempty"`
	// Seed is the fixed workload RNG seed (-seed; 0/absent = the
	// workloads' built-in per-worker seeding). Recorded so A/B documents
	// state whether their key streams were identical.
	Seed int64 `json:"seed,omitempty"`
}

// Experiment is one runner's full series.
type Experiment struct {
	ID        string  `json:"id"`
	Title     string  `json:"title"`
	ElapsedNS int64   `json:"elapsed_ns"` // wall time of the whole run
	Points    []Point `json:"points"`
}

// Point is one protocol at one x-axis value: the run's summary under
// its x label. The embedded Report's fields marshal at the point's top
// level (throughput_tps, latency_p99_ns, lock_wait_ns, ...).
type Point struct {
	X string `json:"x"`
	stats.Report
}

// NewFile returns a File stamped with the current environment.
func NewFile(s Scale) *File {
	return &File{
		SchemaVersion: SchemaVersion,
		CreatedAt:     time.Now().UTC().Format(time.RFC3339),
		GitSHA:        gitSHA(),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		Scale:         s,
	}
}

// gitSHA resolves the commit the binary was built from: an explicit
// BAMBOO_GIT_SHA (set by CI) wins, then the VCS stamp Go embeds in
// binaries built inside a git checkout.
func gitSHA() string {
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
