package main

import (
	"fmt"

	"bamboo/internal/core"
	"bamboo/internal/workload/synth"
	"bamboo/internal/workload/tpcc"
	"bamboo/internal/workload/ycsb"
)

// workload is one named set of inputs. Names are permanent: later
// performance claims cite "<metric> on <workload>".
type workload struct {
	Name string
	// Why records which layers the workload loads and which it bypasses.
	Why string
	// engine is the protocol configuration; the runner adds the log device.
	engine func() core.Config
	// fileWAL logs to a file device (fsync none, one append per commit)
	// in place of the count-only memory device.
	fileWAL bool
	// load populates db from seed. scale divides the table sizes; it is 1
	// except in -smoke runs.
	load func(db *core.DB, seed int64, scale int) (*loaded, error)
}

// loaded is a populated workload.
type loaded struct {
	// gen returns worker's transaction generator.
	gen func(worker int) func(seq int) core.TxnFunc
	// learnWrites makes ring generation dry-run every transaction body
	// against a counting Tx so check can be told how many row writes the
	// committed transactions performed.
	learnWrites bool
	// check is the correctness oracle, run on the window's DB after the
	// clock stops. commits counts committed transactions (warm-up
	// included), writes the row writes they performed (learnWrites only).
	check func(commits uint64, writes int64) error
}

func bambooMVCC() core.Config {
	c := core.Bamboo()
	c.MVCC = true
	return c
}

// Two of the issue's sizes are changed, because the benchmark's driver runs
// the same code twice and refuses a benchmark whose runs spread too far, and
// on the shared host this one runs on they did (README, "Bounds").
const (
	// hotspotTxnLen is the transaction length of hotspot and hotspot_ww: 8,
	// not synth's default 16. Under Wound-Wait the second worker waits for
	// the hot row as long as the first holds it, the whole transaction, and
	// lock.Backoff turns from yielding to time.Sleep after 64 yields
	// (~10 µs). At 16 operations the hold time (~7 µs) sits just under that:
	// any slower moment of the host tips the waiter into sleeping and
	// throughput falls from ~140 k to ~50 k txn/s, so one-second windows of
	// one process spread 30 % where every other length (4, 8, 32) spreads
	// 7–9 %. At 8 the hold time is ~3.5 µs.
	hotspotTxnLen = 8
	// hotspotRows and ycsbRows keep the tables in the caches (a few MB;
	// 20 MB): 10 000 rows, not synth's 100 000, and 20 000, not YCSB's
	// 200 000 (200 MB). On the larger tables every cold access, and every
	// garbage collection's walk over the table, is a trip to memory the
	// host's other tenants share, and one-second windows of one process
	// spread about twice as far (hotspot_ww 7.0 % against 4.5 %, ycsb_uniform
	// 5.3 % against 3.6 %, ycsb_snapshot 10.2 % against 4.1 %) without any of
	// it being the engine's.
	hotspotRows = 10_000
	ycsbRows    = 20_000
)

func loadSynth(db *core.DB, seed int64, scale int) (*loaded, error) {
	cfg := synth.DefaultConfig() // one hotspot at op 0, 1 payload col
	cfg.Rows = hotspotRows / scale
	cfg.TxnLen = hotspotTxnLen
	cfg.Seed = seed
	w, err := synth.Load(db, cfg)
	if err != nil {
		return nil, err
	}
	return &loaded{
		gen: w.NewGenerator,
		check: func(commits uint64, _ int64) error {
			if got := w.HotValue(0); got != int64(commits) {
				return fmt.Errorf("synth.HotValue(0) = %d, want %d commits", got, commits)
			}
			return nil
		},
	}, nil
}

func loadYCSB(theta, readOnlyFrac float64) func(*core.DB, int64, int) (*loaded, error) {
	return func(db *core.DB, seed int64, scale int) (*loaded, error) {
		cfg := ycsb.DefaultConfig() // 10 cols × 100 B, 16 ops, 50 % reads
		cfg.Rows = ycsbRows / scale
		cfg.Theta = theta
		cfg.ReadOnlyFrac = readOnlyFrac
		cfg.Seed = seed
		w, err := ycsb.Load(db, cfg)
		if err != nil {
			return nil, err
		}
		return &loaded{
			gen:         w.NewGenerator,
			learnWrites: true,
			check: func(_ uint64, writes int64) error {
				if got := w.TotalWrites(); got != writes {
					return fmt.Errorf("ycsb.TotalWrites() = %d, want %d writes by committed transactions", got, writes)
				}
				return nil
			},
		}, nil
	}
}

func loadTPCC(db *core.DB, seed int64, scale int) (*loaded, error) {
	cfg := tpcc.DefaultConfig() // NewOrder/Payment 50/50, 1 % user rollbacks
	cfg.Warehouses = 2
	cfg.Items /= scale
	cfg.CustomersPerDistrict /= scale
	cfg.Seed = seed
	w, err := tpcc.Load(db, cfg)
	if err != nil {
		return nil, err
	}
	gen := w.Generator()
	return &loaded{
		gen: func(worker int) func(int) core.TxnFunc {
			return func(seq int) core.TxnFunc { return gen(worker, seq) }
		},
		check: func(uint64, int64) error { return w.CheckConsistency() },
	}, nil
}

var workloads = []workload{
	{
		Name:   "hotspot",
		Why:    "paper 5.2: every txn RMWs one shared row first, so lock.Retire, dirty-read dependencies and the commit semaphore do the work; no cascades",
		engine: core.Bamboo,
		load:   loadSynth,
	},
	{
		Name:   "hotspot_ww",
		Why:    "same inputs under Wound-Wait: same lock manager without retiring, so retire changes must not move it and latching changes move both",
		engine: core.WoundWait,
		load:   loadSynth,
	},
	{
		Name:   "ycsb_uniform",
		Why:    "theta 0, no contention: bypasses wound/cascade/wait and isolates index get, uncontended acquire/release, 1 KB image copy, stats, record encode",
		engine: core.Bamboo,
		load:   loadYCSB(0, 0),
	},
	{
		Name:   "ycsb_snapshot",
		Why:    "theta 0.9, half the txns read lock-free from version chains while skewed writers pay wounds, cascades and a version install per write",
		engine: bambooMVCC,
		load:   loadYCSB(0.9, 0.5),
	},
	{
		Name:    "tpcc_wal",
		Why:     "paper 5.5: 2 warehouses, W_YTD/D_YTD hotspots; the only workload where inserts, multi-table txns, wal encode and the file device do the work",
		engine:  core.Bamboo,
		fileWAL: true,
		load:    loadTPCC,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
