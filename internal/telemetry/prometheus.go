package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"bamboo/internal/stats"
	"bamboo/internal/txn"
)

// WriteMetrics renders the current counters in Prometheus text exposition
// format (version 0.0.4). Every series is documented in docs/METRICS.md;
// the golden test in exposition_test.go pins the format.
func (r *Registry) WriteMetrics(w io.Writer) {
	up := 0
	src := r.src.Load()
	if src != nil && src.Live != nil {
		up = 1
	}
	counter(w, "bamboo_up", "Whether a database is attached to this registry.", "gauge", uint64(up))
	gauge(w, "bamboo_uptime_seconds", "Seconds since the registry was created.",
		r.now().Sub(r.start).Seconds())
	if up == 0 {
		return
	}

	fmt.Fprintf(w, "# HELP bamboo_info Build/protocol labels; value is always 1.\n"+
		"# TYPE bamboo_info gauge\nbamboo_info{protocol=%q} 1\n", src.Protocol)

	live := src.Live
	counter(w, "bamboo_txn_commits_total", "Committed transactions.", "counter", live.Commits.Load())
	counter(w, "bamboo_txn_aborts_total", "Aborted transaction attempts.", "counter", live.Aborts.Load())
	header(w, "bamboo_txn_aborts_by_cause_total", "Aborted attempts by cause.", "counter")
	for c := 1; c < len(live.AbortsBy); c++ {
		fmt.Fprintf(w, "bamboo_txn_aborts_by_cause_total{cause=%q} %d\n",
			txn.AbortCause(c).String(), live.AbortsBy[c].Load())
	}
	counter(w, "bamboo_txn_upgrades_total", "Successful SH-to-EX lock promotions.", "counter", live.Upgrades.Load())
	counter(w, "bamboo_txn_retires_total", "Lock retires (writes made visible before commit).", "counter", live.Retires.Load())

	versionsPruned := live.VersionsPruned.Load()
	if g := src.Global; g != nil {
		counter(w, "bamboo_txn_wounds_total", "Transactions wounded by a higher-priority conflicter.", "counter", g.Wounds.Load())
		counter(w, "bamboo_txn_cascades_total", "Cascading-abort events.", "counter", g.Cascades.Load())
		counter(w, "bamboo_txn_cascade_chain_max", "Longest cascading-abort chain observed.", "gauge", g.ChainMax.Load())
		if n := g.NumPartitions(); n > 0 {
			header(w, "bamboo_partition_accesses_total", "Row accesses per storage partition.", "counter")
			for p := 0; p < n; p++ {
				a, _ := g.PartitionAt(p)
				fmt.Fprintf(w, "bamboo_partition_accesses_total{partition=\"%d\"} %d\n", p, a)
			}
			header(w, "bamboo_partition_conflicts_total", "Conflicted (aborted or upgrade-failed) accesses per storage partition.", "counter")
			accTotals := make([]uint64, n)
			for p := 0; p < n; p++ {
				a, c := g.PartitionAt(p)
				accTotals[p] = a
				fmt.Fprintf(w, "bamboo_partition_conflicts_total{partition=\"%d\"} %d\n", p, c)
			}
			gauge(w, "bamboo_partition_skew", "Hottest partition's access share relative to a balanced spread (1 = balanced).",
				stats.Skew(accTotals))
		}
		versionsPruned += g.VersionsPruned.Load()
		counter(w, "bamboo_version_chain_max", "Longest MVCC version chain observed.", "gauge", g.VersionChainMax.Load())
	}

	if src.WAL != nil {
		ws := src.WAL()
		counter(w, "bamboo_wal_appends_total", "Commit records appended to the WAL.", "counter", ws.Appends)
		counter(w, "bamboo_wal_batches_total", "WAL device write operations (group commit amortizes these).", "counter", ws.Batches)
		counter(w, "bamboo_wal_bytes_total", "WAL payload bytes appended.", "counter", ws.Bytes)
		counter(w, "bamboo_wal_syncs_total", "WAL device fsyncs.", "counter", ws.Syncs)
		gauge(w, "bamboo_wal_fsync_seconds_total", "Cumulative time spent in WAL fsync.", ws.SyncTime.Seconds())
	}
	if src.Lifecycle != nil {
		ls := src.Lifecycle()
		counter(w, "bamboo_checkpoints_total", "Fuzzy checkpoint snapshots written.", "counter", ls.Checkpoints)
		gauge(w, "bamboo_checkpoint_seconds_total", "Cumulative checkpoint capture+write time.", ls.CheckpointTime.Seconds())
		counter(w, "bamboo_wal_truncations_total", "Truncation passes that unlinked log segments.", "counter", ls.Truncations)
		counter(w, "bamboo_wal_truncated_bytes_total", "Log bytes reclaimed by truncation.", "counter", uint64(ls.TruncatedBytes))
		header(w, "bamboo_log_live_bytes", "Live (not yet truncated) WAL bytes on disk.", "gauge")
		fmt.Fprintf(w, "bamboo_log_live_bytes %d\n", ls.LogLiveBytes)
	}

	counter(w, "bamboo_snapshot_reads_total", "Row reads served by the lock-free MVCC snapshot path.", "counter", live.SnapshotReads.Load())
	counter(w, "bamboo_versions_pruned_total", "MVCC version nodes reclaimed (install-time reuse plus background sweeps).", "counter", versionsPruned)
	counter(w, "bamboo_image_copies_total", "Fresh row-image buffer allocations on the write path.", "counter", live.ImageCopies.Load())
	counter(w, "bamboo_image_pool_recycled_total", "Write copies served from recycled spare image buffers.", "counter", live.ImagePoolRecycled.Load())

	var qv [8]time.Duration
	n := live.Lat.QuantilesInto(quantiles, qv[:len(quantiles)])
	header(w, "bamboo_txn_latency_seconds", "Committed-transaction latency (lock wait + execution + commit wait).", "summary")
	for i, lbl := range quantileLabels {
		fmt.Fprintf(w, "bamboo_txn_latency_seconds{quantile=%q} %s\n", lbl, fmtFloat(qv[i].Seconds()))
	}
	fmt.Fprintf(w, "bamboo_txn_latency_seconds_sum %s\n", fmtFloat(time.Duration(live.Lat.Sum()).Seconds()))
	fmt.Fprintf(w, "bamboo_txn_latency_seconds_count %d\n", n)
}

func header(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func counter(w io.Writer, name, help, typ string, v uint64) {
	header(w, name, help, typ)
	fmt.Fprintf(w, "%s %d\n", name, v)
}

func gauge(w io.Writer, name, help string, v float64) {
	header(w, name, help, "gauge")
	fmt.Fprintf(w, "%s %s\n", name, fmtFloat(v))
}

// fmtFloat renders a float the way Prometheus clients expect: shortest
// round-trip representation, no exponent for typical magnitudes.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
