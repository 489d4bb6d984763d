package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"
)

// WriteJSON emits the document as indented JSON (the BENCH_*.json
// trajectory artifact format).
func WriteJSON(w io.Writer, f *File) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// Save writes the document to path atomically enough for CI use.
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

// csvHeader is the flat column set, one row per point.
var csvHeader = []string{
	"experiment", "x", "protocol", "workers",
	"throughput_tps", "commits", "aborts", "abort_rate",
	"lat_mean_ns", "lat_p50_ns", "lat_p90_ns", "lat_p95_ns", "lat_p99_ns", "lat_p999_ns", "lat_max_ns",
	"lock_wait_ns", "abort_ns", "commit_wait_ns", "useful_ns",
	"wounds", "cascades", "avg_chain", "max_chain",
	"load_ns", "partition_skew",
}

// WriteCSV emits every point of every experiment as one flat table.
func WriteCSV(w io.Writer, f *File) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, e := range f.Experiments {
		for _, p := range e.Points {
			rec := []string{
				e.ID, p.X, p.Protocol, strconv.Itoa(p.Workers),
				strconv.FormatFloat(p.ThroughputTPS, 'f', 1, 64),
				strconv.FormatUint(p.Commits, 10),
				strconv.FormatUint(p.Aborts, 10),
				strconv.FormatFloat(p.AbortRate, 'f', 4, 64),
				ns(p.LatencyMean), ns(p.LatencyP50), ns(p.LatencyP90), ns(p.LatencyP95),
				ns(p.LatencyP99), ns(p.LatencyP999), ns(p.LatencyMax),
				ns(p.PerTxnLockWait), ns(p.PerTxnAbort), ns(p.PerTxnCommitWait), ns(p.PerTxnUseful),
				strconv.FormatUint(p.Wounds, 10),
				strconv.FormatUint(p.Cascades, 10),
				strconv.FormatFloat(p.AvgChain, 'f', 2, 64),
				strconv.FormatUint(p.MaxChain, 10),
				ns(p.LoadTime),
				strconv.FormatFloat(p.PartitionSkew, 'f', 3, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ns renders a duration as integer nanoseconds, the CSV's unit.
func ns(d time.Duration) string { return strconv.FormatInt(int64(d), 10) }

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

// WriteTable renders one experiment in the human-readable block format
// (the output bamboo-bench has always printed): a title header, then one
// group per x-axis value with one line per protocol.
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

// WriteTables renders every experiment in the document.
func WriteTables(w io.Writer, f *File) {
	for i, e := range f.Experiments {
		if i > 0 {
			fmt.Fprintln(w)
		}
		WriteTable(w, e)
	}
}
