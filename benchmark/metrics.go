package main

// metric declares one metric once. BENCHMARK.json repeats these names,
// units, directions and bounds; bench_test.go fails when the two drift.
type metric struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare (and the driver) reports a
	// regression. Zero on per-layer metrics, which are not gated.
	Bound float64
	// AbsFloor is the absolute worsening -compare tolerates regardless of
	// Bound (allocs_per_txn near 1 would otherwise trip on ±0.1).
	AbsFloor float64
	// Ungated marks an end-to-end metric the driver does not gate: it is
	// declared in BENCHMARK.json's per_layer list, which carries no bounds,
	// and reported by -trace 1 from the untraced reference window. Only
	// -compare gates it.
	Ungated bool
	// BestQuartile makes a run report, over its windows, the quartile on
	// the metric's better side (third for "higher", first for "lower") in
	// place of the median. The host disturbs a run one way only: for some
	// ten seconds at a time everything runs at ~0.7×, which takes three of
	// five windows with it and the median too. The better-side quartile of
	// five windows is the mean of the best two, so it reads the undisturbed
	// speed as long as two windows escaped.
	BestQuartile bool
}

// endToEnd are the metrics a caller of the embedded engine sees. Three of
// the issue's six are not gated by the driver. error_rate is 0 on a correct
// engine and the contract gates with a relative bound: it is reported as
// failed ÷ attempted beside these and gated by -compare as "any rise is
// worse". allocs_per_txn is ≈ 0.0004 on ycsb_uniform, where a handful of
// runtime allocations per window swing it by a quarter. latency_p99_us is
// where a waiter's time.Sleep and the host's hiccups land: with nothing
// changed it spreads two to three times what the median latency does (README,
// "Bounds"). See Ungated for where the last two go.
//
// The bounds are the contract's cap, not the issue's 10 % / 15 % / 30 %: the
// shared 2-vCPU host moves two-worker throughput by more than those with
// nothing changed (README, "Bounds").
var endToEnd = []metric{
	{Name: "throughput_tps", Unit: "1/s", Better: "higher", Bound: 0.25, BestQuartile: true},
	{Name: "latency_p50_us", Unit: "us", Better: "lower", Bound: 0.25, BestQuartile: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "latency_p99_us", Unit: "us", Better: "lower", Bound: 0.25, BestQuartile: true, Ungated: true},
	{Name: "allocs_per_txn", Unit: "count", Better: "lower", Bound: 0.10, AbsFloor: 0.5, Ungated: true},
}

func lower(name, unit string) metric  { return metric{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metric { return metric{Name: name, Unit: unit, Better: "higher"} }

// lockVariants are the two lock-manager disciplines the lock probes run
// under; the suffix is part of the metric name.
var lockVariants = []string{"bamboo", "ww"}

// perLayer lists the ledger: traced-run metrics first (per committed
// transaction unless the unit says otherwise), then the probe metrics.
// A metric that does not apply to a workload (core.recover_s outside
// tpcc_wal, the per-class medians) reads 0 there.
var perLayer = func() []metric {
	m := []metric{
		lower("core.run_ns", "ns"),
		lower("core.tx_read_ns", "ns"),
		lower("core.tx_update_ns", "ns"),
		lower("core.tx_insert_ns", "ns"),
		lower("core.tx_read_calls", "count"),
		lower("core.tx_update_calls", "count"),
		lower("core.tx_insert_calls", "count"),
		lower("core.body_self_ns", "ns"),
		lower("core.commit_path_ns", "ns"),
		lower("core.commit_self_ns", "ns"),
		lower("core.retry_ns", "ns"),
		lower("core.attempts_per_commit", "count"),
		lower("core.abort_rate", "ratio"),
		lower("core.aborts_wound", "count"),
		lower("core.aborts_cascade", "count"),
		lower("core.aborts_other", "count"),
		lower("core.lock_wait_ns", "ns"),
		lower("core.commit_wait_ns", "ns"),
		lower("core.abort_ns", "ns"),
		lower("core.useful_ns", "ns"),
		lower("core.run_ro_p50_ns", "ns"),
		lower("core.run_rw_p50_ns", "ns"),
		lower("core.run_rw_p99_ns", "ns"),
		lower("core.run_neworder_p50_ns", "ns"),
		lower("core.run_payment_p50_ns", "ns"),
		lower("core.recover_s", "s"),
		higher("core.recover_records_per_s", "1/s"),

		lower("lock.wounds", "count"),
		lower("lock.cascades", "count"),
		lower("lock.chain_avg", "count"),
		lower("lock.chain_max", "count"),
		lower("lock.retires", "count"),
		lower("lock.upgrades", "count"),
		lower("lock.image_copies", "count"),
		higher("lock.image_recycle_ratio", "ratio"),

		lower("storage.snapshot_reads", "count"),
		lower("storage.versions_pruned", "count"),
		lower("storage.version_chain_max", "count"),

		lower("wal.append_ns", "ns"),
		lower("wal.append_calls", "count"),
		lower("wal.bytes", "B"),
		lower("wal.syncs", "count"),
		lower("wal.sync_ns", "ns"),

		lower("workload.plan_ns", "ns"),

		lower("trace.overhead_frac", "ratio"),
		higher("trace.coverage_frac", "ratio"),
	}
	for _, v := range lockVariants {
		m = append(m,
			lower("lock.acquire_release_sh_ns_"+v, "ns"),
			lower("lock.acquire_release_ex_ns_"+v, "ns"),
			lower("lock.upgrade_ns_"+v, "ns"))
	}
	return append(m,
		lower("lock.acquire_retire_release_ex_ns_bamboo", "ns"),
		lower("txn.ts_alloc_ns", "ns"),
		lower("txn.snapshot_begin_end_ns", "ns"),
		lower("storage.index_get_ns", "ns"),
		lower("storage.version_install_ns", "ns"),
		lower("storage.version_read_d1_ns", "ns"),
		lower("storage.version_read_d4_ns", "ns"),
		lower("wal.encode_ns", "ns"),
		lower("wal.commit_mem_ns", "ns"),
		lower("wal.commit_file_ns", "ns"),
		lower("stats.record_commit_ns", "ns"),
		lower("stats.hist_record_ns", "ns"),
		lower("zipfian.next_ns", "ns"),
	)
}()

// values maps a metric name to its measured value.
type values map[string]float64
