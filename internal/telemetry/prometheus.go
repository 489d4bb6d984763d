package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"bamboo/internal/txn"
)

// family is one /metrics family. value reads an unlabelled family's one
// sample; a labelled family sets samples instead, which writes its lines.
type family struct {
	name, typ, help string
	value           func(v *vars) float64
	samples         func(w io.Writer, name string, v *vars)
}

// families declares every series /metrics exports, in exposition order.
// Each reads one scrape's report; docs/METRICS.md names the stats.Report
// field behind each, and the golden test in exposition_test.go pins the
// rendering. The first two are rendered even with no DB attached.
var families = []family{
	{name: "bamboo_up", typ: "gauge", help: "Whether a database is attached to this registry.", value: func(v *vars) float64 { return b2f(v.Up) }},
	{name: "bamboo_uptime_seconds", typ: "gauge", help: "Seconds since the registry was created.", value: func(v *vars) float64 { return v.UptimeSeconds }},
	{name: "bamboo_info", typ: "gauge", help: "Build/protocol labels; value is always 1.", samples: info},
	{name: "bamboo_txn_commits_total", typ: "counter", help: "Committed transactions.", value: func(v *vars) float64 { return float64(v.Commits) }},
	{name: "bamboo_txn_aborts_total", typ: "counter", help: "Aborted transaction attempts.", value: func(v *vars) float64 { return float64(v.Aborts) }},
	{name: "bamboo_txn_aborts_by_cause_total", typ: "counter", help: "Aborted attempts by cause.", samples: abortsByCause},
	{name: "bamboo_txn_upgrades_total", typ: "counter", help: "Successful SH-to-EX lock promotions.", value: func(v *vars) float64 { return float64(v.Upgrades) }},
	{name: "bamboo_txn_retires_total", typ: "counter", help: "Lock retires (writes made visible before commit).", value: func(v *vars) float64 { return float64(v.Retires) }},
	{name: "bamboo_txn_wounds_total", typ: "counter", help: "Transactions wounded by a higher-priority conflicter.", value: func(v *vars) float64 { return float64(v.Wounds) }},
	{name: "bamboo_txn_cascades_total", typ: "counter", help: "Cascading-abort events.", value: func(v *vars) float64 { return float64(v.Cascades) }},
	{name: "bamboo_txn_cascade_chain_max", typ: "gauge", help: "Longest cascading-abort chain observed.", value: func(v *vars) float64 { return float64(v.MaxChain) }},
	{name: "bamboo_partition_accesses_total", typ: "counter", help: "Row accesses per storage partition.", samples: perPartition(func(v *vars) []uint64 { return v.PartitionAccesses })},
	{name: "bamboo_partition_conflicts_total", typ: "counter", help: "Conflicted (aborted or upgrade-failed) accesses per storage partition.", samples: perPartition(func(v *vars) []uint64 { return v.PartitionConflicts })},
	{name: "bamboo_partition_skew", typ: "gauge", help: "Hottest partition's access share relative to a balanced spread (1 = balanced).", value: func(v *vars) float64 { return v.PartitionSkew }},
	{name: "bamboo_version_chain_max", typ: "gauge", help: "Longest MVCC version chain observed.", value: func(v *vars) float64 { return float64(v.VersionChainMax) }},
	{name: "bamboo_wal_appends_total", typ: "counter", help: "Commit records appended to the WAL.", value: func(v *vars) float64 { return float64(v.WALAppends) }},
	{name: "bamboo_wal_bytes_total", typ: "counter", help: "WAL payload bytes appended.", value: func(v *vars) float64 { return float64(v.WALBytes) }},
	{name: "bamboo_wal_syncs_total", typ: "counter", help: "WAL device fsyncs.", value: func(v *vars) float64 { return float64(v.WALSyncs) }},
	{name: "bamboo_wal_fsync_seconds_total", typ: "counter", help: "Cumulative time spent in WAL fsync.", value: func(v *vars) float64 { return v.WALSyncTime.Seconds() }},
	{name: "bamboo_checkpoints_total", typ: "counter", help: "Fuzzy checkpoint snapshots written.", value: func(v *vars) float64 { return float64(v.CheckpointCount) }},
	{name: "bamboo_checkpoint_seconds_total", typ: "counter", help: "Cumulative checkpoint capture+write time.", value: func(v *vars) float64 { return v.CheckpointTime.Seconds() }},
	{name: "bamboo_wal_truncations_total", typ: "counter", help: "Truncation passes that unlinked log segments.", value: func(v *vars) float64 { return float64(v.Truncations) }},
	{name: "bamboo_wal_truncated_bytes_total", typ: "counter", help: "Log bytes reclaimed by truncation.", value: func(v *vars) float64 { return float64(v.TruncatedBytes) }},
	{name: "bamboo_log_live_bytes", typ: "gauge", help: "Live (not yet truncated) WAL bytes on disk.", value: func(v *vars) float64 { return float64(v.LogBytesLive) }},
	{name: "bamboo_snapshot_reads_total", typ: "counter", help: "Row reads served by the lock-free MVCC snapshot path.", value: func(v *vars) float64 { return float64(v.SnapshotReads) }},
	{name: "bamboo_versions_pruned_total", typ: "counter", help: "MVCC version nodes reclaimed (install-time reuse plus background sweeps).", value: func(v *vars) float64 { return float64(v.VersionsPruned) }},
	{name: "bamboo_image_copies_total", typ: "counter", help: "Fresh row-image buffer allocations on the write path.", value: func(v *vars) float64 { return float64(v.ImageCopies) }},
	{name: "bamboo_image_pool_recycled_total", typ: "counter", help: "Write copies served from recycled spare image buffers.", value: func(v *vars) float64 { return float64(v.ImagePoolRecycled) }},
	{name: "bamboo_txn_lock_wait_seconds_total", typ: "counter", help: "Time attempts spent blocked on locks.", value: func(v *vars) float64 { return total(v, v.PerTxnLockWait) }},
	{name: "bamboo_txn_abort_seconds_total", typ: "counter", help: "Execution time of aborted attempts.", value: func(v *vars) float64 { return total(v, v.PerTxnAbort) }},
	{name: "bamboo_txn_commit_wait_seconds_total", typ: "counter", help: "Time finished attempts waited for other transactions to commit.", value: func(v *vars) float64 { return total(v, v.PerTxnCommitWait) }},
	{name: "bamboo_txn_useful_seconds_total", typ: "counter", help: "Execution time of committed attempts.", value: func(v *vars) float64 { return total(v, v.PerTxnUseful) }},
	{name: "bamboo_txn_latency_seconds", typ: "summary", help: "Committed-transaction latency (lock wait + execution + commit wait).", samples: latency},
}

// WriteMetrics renders the current counters in Prometheus text exposition
// format (version 0.0.4), one family per row of families.
func (r *Registry) WriteMetrics(w io.Writer) {
	v := r.vars()
	fams := families
	if !v.Up {
		fams = fams[:2]
	}
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		if f.samples != nil {
			f.samples(w, f.name, v)
		} else {
			fmt.Fprintf(w, "%s %s\n", f.name, fmtFloat(f.value(v)))
		}
	}
}

func info(w io.Writer, name string, v *vars) {
	fmt.Fprintf(w, "%s{protocol=%q} 1\n", name, v.Protocol)
}

func abortsByCause(w io.Writer, name string, v *vars) {
	for c := txn.CauseWound; c <= txn.CauseValidation; c++ {
		fmt.Fprintf(w, "%s{cause=%q} %d\n", name, c, v.AbortsBy[c.String()])
	}
}

func perPartition(counts func(v *vars) []uint64) func(io.Writer, string, *vars) {
	return func(w io.Writer, name string, v *vars) {
		for p, n := range counts(v) {
			fmt.Fprintf(w, "%s{partition=\"%d\"} %d\n", name, p, n)
		}
	}
}

// latency writes the summary from the report's quantiles; like the
// breakdown counters, its sum is the per-transaction mean times commits.
func latency(w io.Writer, name string, v *vars) {
	for _, q := range []struct {
		label string
		d     time.Duration
	}{{"0.5", v.LatencyP50}, {"0.9", v.LatencyP90}, {"0.95", v.LatencyP95}, {"0.99", v.LatencyP99}, {"0.999", v.LatencyP999}} {
		fmt.Fprintf(w, "%s{quantile=%q} %s\n", name, q.label, fmtFloat(q.d.Seconds()))
	}
	fmt.Fprintf(w, "%s_sum %s\n", name, fmtFloat(total(v, v.LatencyMean)))
	fmt.Fprintf(w, "%s_count %d\n", name, v.Commits)
}

// total turns a per-committed-transaction mean back into the cumulative
// seconds it was divided from, exact to 1ns per transaction.
func total(v *vars, perTxn time.Duration) float64 {
	return (perTxn * time.Duration(v.Commits)).Seconds()
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// fmtFloat renders a sample value: shortest round-trip decimal, never an
// exponent, so integer counters print as integers.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
