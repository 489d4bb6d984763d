package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"bamboo/internal/stats"
)

// SchemaVersion identifies the JSON layout of File. Bump it on any
// backwards-incompatible change to the tags of File, Scale, Experiment,
// Point or stats.Report (TestReportDocumentKeys pins the key set).
// Version 2 flattened version 1's nested latency_ns / breakdown_ns
// objects; version 3 added truncations and truncated_bytes.
const SchemaVersion = 3

// File is the result document of one benchmark invocation (the
// BENCH_*.json artifact CI uploads and greps): one or more experiments at
// a single scale, annotated with enough environment detail to interpret
// absolute numbers later. A point is a stats.Report plus its x-axis
// label, so the metric keys are the tags declared on stats.Report and
// nowhere else.
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

// Point is one protocol at one x-axis value: the run's summary under
// its x label. The embedded Report's fields marshal at the point's top
// level (throughput_tps, latency_p99_ns, lock_wait_ns, ...).
type Point struct {
	X string `json:"x"`
	stats.Report
}

// NewFile returns a File at scale s stamped with the current
// environment. The document's threads is the sweep the experiments run,
// the default one when s names none.
func NewFile(s Scale) *File {
	s.Threads = s.threads()
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

// WriteJSON emits the document as indented JSON.
func WriteJSON(w io.Writer, f *File) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// Save writes the document to path, surfacing the Close error so a short
// write cannot go unnoticed.
func Save(path string, f *File) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteJSON(fh, f); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// String renders a point in the classic one-line table format.
func (p Point) String() string {
	line := fmt.Sprintf("%-12s %8.0f txn/s  aborts=%5.1f%%  wait=%s commitWait=%s abortTime=%s useful=%s",
		p.Protocol, p.ThroughputTPS, p.AbortRate*100,
		p.PerTxnLockWait.Round(time.Microsecond),
		p.PerTxnCommitWait.Round(time.Microsecond),
		p.PerTxnAbort.Round(time.Microsecond),
		p.PerTxnUseful.Round(time.Microsecond))
	if p.LatencyP50 > 0 {
		line += fmt.Sprintf("  p50=%s p99=%s",
			p.LatencyP50.Round(time.Microsecond),
			p.LatencyP99.Round(time.Microsecond))
	}
	if p.Cascades > 0 {
		line += fmt.Sprintf("  chains(avg=%.1f max=%d)", p.AvgChain, p.MaxChain)
	}
	return line
}

// WriteTable renders one experiment's points in the human-readable block
// format (the output bamboo-bench has always printed): a title header,
// then one group per x-axis value with one line per protocol.
func WriteTable(w io.Writer, e Experiment) {
	fmt.Fprintf(w, "== %s ==\n", e.Title)
	lastX := ""
	for _, p := range e.Points {
		if p.X != lastX {
			fmt.Fprintf(w, "-- %s\n", p.X)
			lastX = p.X
		}
		fmt.Fprintf(w, "   %s\n", p)
	}
}
