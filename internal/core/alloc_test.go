package core_test

import (
	"runtime"
	"testing"
	"unsafe"

	"bamboo/internal/chop"
	"bamboo/internal/core"
	"bamboo/internal/occ"
	"bamboo/internal/stats"
	"bamboo/internal/storage"
	"bamboo/internal/txn"
	"bamboo/internal/wal"
	"bamboo/internal/workload/synth"
	"bamboo/internal/workload/tpcc"
	"bamboo/internal/workload/ycsb"
)

// Pre-refactor baselines, measured at the original tree (slice-based
// entry lists, per-acquire Request allocation, per-attempt transaction,
// row map and access list allocation, per-commit WAL encode buffer) with
// the exact harness below, kept for the log line's sake. The gate itself
// is the absolute allocBudget ratchet below.
const (
	seedAllocsBamboo    = 76.0
	seedAllocsWoundWait = 78.0
)

// allocBudget is the ratcheted allocs/txn ceiling. Measured steady state
// on this harness is 0: the shared-image protocol recycles superseded
// committed images into the writers' private-copy buffers (capture at
// commit release, consumption at the next exclusive grant), the
// workload's per-write mutate closure is hoisted, and the default
// in-memory log device keeps no copy of the records. The budget is that
// 0 plus 1 (ratcheted down from 12, 20 and originally 24): AllocsPerRun
// truncates its average, so the gate trips at 2 allocs/txn — any
// reintroduced per-attempt, per-acquire or per-write-clone allocation
// costs at least that on this workload — and tolerates the occasional
// fresh copy when a spare is missing or a map grows.
const allocBudget = 1.0

// measureAllocsPerTxn reports the average heap allocations per committed
// transaction on the YCSB medium-contention stored-procedure path, driven
// by a single session so the count is deterministic (no aborts, no
// concurrent noise).
func measureAllocsPerTxn(t *testing.T, cfg core.Config) float64 {
	return measureAllocsPerTxnRMW(t, cfg, 0)
}

// measureAllocsPerTxnRMW is measureAllocsPerTxn with a fraction of the
// updates issued as un-annotated read-modify-writes (SH→EX upgrades).
func measureAllocsPerTxnRMW(t *testing.T, cfg core.Config, rmwFrac float64) float64 {
	t.Helper()
	db := core.NewDB(cfg)
	defer db.Close()
	gen := loadAllocYCSB(t, db, rmwFrac)
	return measureEngineAllocs(t, core.NewLockEngine(db), gen, false)
}

// loadAllocYCSB loads the gates' YCSB medium-contention shape into db.
func loadAllocYCSB(t *testing.T, db *core.DB, rmwFrac float64) core.Generator {
	t.Helper()
	w, err := ycsb.Load(db, ycsb.Config{
		Rows: 20000, OpsPerTxn: 16, Theta: 0.6, ReadRatio: 0.5,
		Columns: 10, ColumnBytes: 100, RMWFrac: rmwFrac,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w.Generator()
}

// measureEngineAllocs reports the average heap allocations per
// transaction of one session of e. The transactions are planned first, so
// workload-side planning allocations are excluded from the executor
// measurement. With warm, they all run once before it, so what a first
// pass allocates (Silo seeds each row's version chain, IC3's session and
// collector grow their scratch) is not counted.
func measureEngineAllocs(t *testing.T, e core.Engine, gen core.Generator, warm bool) float64 {
	t.Helper()
	sess := e.NewSession(0, &stats.Collector{})
	const txns = 200
	fns := make([]core.TxnFunc, txns)
	for i := range fns {
		fns[i] = gen(0, i)
	}
	for j := 0; warm && j < txns; j++ {
		if err := sess.Run(fns[j]); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	return testing.AllocsPerRun(txns, func() {
		if err := sess.Run(fns[i%txns]); err != nil {
			t.Fatal(err)
		}
		i++
	})
}

// TestAllocBudget is the allocation gate: the per-transaction allocation
// count on the YCSB medium-contention path must stay under the ratcheted
// absolute ceiling (allocBudget, down from the original ≤50%-of-seed
// rule). The per-write private image copies that used to dominate are
// now served from recycled spare buffers (superseded committed images
// captured at commit release); what remains is bookkeeping growth and
// the occasional fresh copy when a spare is missing or too small.
func TestAllocBudget(t *testing.T) {
	cases := []struct {
		name     string
		cfg      core.Config
		baseline float64
	}{
		{"bamboo", core.Bamboo(), seedAllocsBamboo},
		{"woundwait", core.WoundWait(), seedAllocsWoundWait},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := measureAllocsPerTxn(t, c.cfg)
			t.Logf("%s: %.1f allocs/txn (seed baseline %.0f, budget %.0f)",
				c.name, got, c.baseline, allocBudget)
			if got > allocBudget {
				t.Fatalf("allocs/txn = %.1f exceeds budget %.1f (seed baseline %.0f; "+
					"the hot path regressed — look for per-attempt or per-acquire allocations)",
					got, allocBudget, c.baseline)
			}
		})
	}
}

// Silo and IC3 are held at the allocations per transaction they measured
// (measureEngineAllocs) once Silo published its images on the version
// chain and IC3 on the entry's Data, so neither grows back. Silo, on the
// YCSB path of measureAllocsPerTxn, pays per write its private clone and
// the version node that publishes it. IC3, on the TPC-C NewOrder/Payment
// mix, pays for its per-attempt and per-access state, each piece
// install's merged image and the inserted rows; it read 71 while it
// boxed every install in a *[]byte, and 57 while every inserted row got
// its accessor list at commit instead of at its first access.
const (
	siloAllocBudget = 15.0
	ic3AllocBudget  = 51.0
)

// TestAllocBudgetSilo gates Silo on the YCSB medium-contention path.
func TestAllocBudgetSilo(t *testing.T) {
	db := core.NewDB(core.Config{})
	defer db.Close()
	gen := loadAllocYCSB(t, db, 0)
	got := measureEngineAllocs(t, occ.New(db), gen, true)
	t.Logf("SILO ycsb: %.1f allocs/txn (budget %.0f)", got, siloAllocBudget)
	if got > siloAllocBudget {
		t.Fatalf("Silo allocs/txn = %.1f exceeds budget %.0f", got, siloAllocBudget)
	}
}

// TestAllocBudgetIC3 gates IC3 on the TPC-C NewOrder/Payment mix.
func TestAllocBudgetIC3(t *testing.T) {
	db := core.NewDB(core.Config{})
	defer db.Close()
	w, err := tpcc.Load(db, tpcc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := measureEngineAllocs(t, chop.New(db), w.IC3Generator(), true)
	t.Logf("IC3 tpcc: %.1f allocs/txn (budget %.0f)", got, ic3AllocBudget)
	if got > ic3AllocBudget {
		t.Fatalf("IC3 allocs/txn = %.1f exceeds budget %.0f", got, ic3AllocBudget)
	}
}

// TestAllocBudgetSynthHotspot gates the benchmark's hotspot shape: the
// synthetic workload's 8-operation transactions whose first operation
// increments the one hot row, on Bamboo (hotspot) and Wound-Wait
// (hotspot_ww), planned beforehand as in measureAllocsPerTxn. Besides the
// shared budget it must read 0: the one allocation per transaction that a
// per-Update mutate closure costs would read 1.0 (AllocsPerRun
// truncates), inside the budget's one-allocation tolerance.
func TestAllocBudgetSynthHotspot(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  core.Config
	}{
		{"bamboo", core.Bamboo()},
		{"woundwait", core.WoundWait()},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := core.NewDB(c.cfg)
			defer db.Close()
			cfg := synth.DefaultConfig()
			cfg.Rows, cfg.TxnLen = 10000, 8
			w, err := synth.Load(db, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sess := core.NewLockEngine(db).NewSession(0, &stats.Collector{})
			gen := w.NewGenerator(0)
			const txns = 200
			fns := make([]core.TxnFunc, txns)
			for i := range fns {
				fns[i] = gen(i)
			}
			i := 0
			got := testing.AllocsPerRun(txns, func() {
				if err := sess.Run(fns[i%txns]); err != nil {
					t.Fatal(err)
				}
				i++
			})
			t.Logf("%s synth hotspot: %.1f allocs/txn (budget %.0f, want 0)", c.name, got, allocBudget)
			if got > allocBudget {
				t.Fatalf("synth hotspot allocs/txn = %.1f exceeds budget %.1f", got, allocBudget)
			}
			if got != 0 {
				t.Fatalf("synth hotspot allocates %.1f per txn, want 0: look for a per-transaction allocation such as a per-Update closure", got)
			}
			if v := w.HotValue(0); v != int64(txns+1) {
				t.Fatalf("hot row holds %d after %d commits", v, txns+1)
			}
		})
	}
}

// TestAllocBudgetReadOnly is the snapshot-path allocation gate: a
// transaction running entirely on the MVCC read path — snapshot
// acquisition, version-chain walks, the lock-free commit — must allocate
// NOTHING in steady state. The measurement drives declared-read-only
// YCSB transactions (every access a Read, core.MarkReadOnly up front) on
// an MVCC engine; the plans are pre-built so only the executor is
// measured. The 0.5 tolerance absorbs AllocsPerRun jitter from the
// background pruner's occasional sweep, not any per-txn allocation.
func TestAllocBudgetReadOnly(t *testing.T) {
	cfg := core.Bamboo()
	cfg.MVCC = true
	db := core.NewDB(cfg)
	defer db.Close()
	w, err := ycsb.Load(db, ycsb.Config{
		Rows: 20000, OpsPerTxn: 16, Theta: 0.6, ReadRatio: 0.5,
		Columns: 10, ColumnBytes: 100, ReadOnlyFrac: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewLockEngine(db)
	col := &stats.Collector{}
	sess := eng.NewSession(0, col)
	gen := w.Generator()
	const txns = 200
	fns := make([]core.TxnFunc, txns)
	for i := range fns {
		fns[i] = gen(0, i)
	}
	// Warm up once: the first transactions grow the latency histogram and
	// the session's access scratch to steady-state capacity.
	for i := 0; i < txns; i++ {
		if err := sess.Run(fns[i]); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	got := testing.AllocsPerRun(txns, func() {
		if err := sess.Run(fns[i%txns]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("read-only snapshot path: %.2f allocs/txn (budget 0)", got)
	if got > 0.5 {
		t.Fatalf("read-only snapshot path allocates %.2f allocs/txn, want 0", got)
	}
	if col.Counts[stats.SnapshotReads] == 0 {
		t.Fatal("no snapshot reads recorded — the transactions did not run on the MVCC path")
	}
}

// TestAllocBudgetMVCCWrites is the write half of the MVCC allocation gate:
// a skewed read/write YCSB mix (theta 0.9) on an MVCC DB with its pruner
// running must stay inside the same budget as the non-MVCC engine. Every
// committed write adds a version — a node and the 1 KB image the chain
// adopts — and the writer needs a fresh private copy for the next one;
// both come back from the tails the session's installs detach once the
// watermark has passed them (the session's versionFree lists). The warm-up
// spans several pruner ticks so the free lists reach their steady
// inventory; one session, so there are no aborts.
//
// Mallocs are read from the runtime instead of testing.AllocsPerRun,
// which pins GOMAXPROCS to 1: the pruner then runs only when the session
// is preempted, every 10 ms, and five ticks' worth of versions pile up
// behind a watermark that does not move — more than the free lists are
// sized to hold. For the same reason the test needs a second CPU, and is
// skipped under the race detector: the loop runs against the pruner's
// wall clock, and a session slowed tenfold rewrites too few rows per
// sweep period (50 ms) for their tails to still be there.
func TestAllocBudgetMVCCWrites(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs a second CPU for the pruner to tick while the session runs")
	}
	if raceEnabled {
		t.Skip("timing-dependent: the race detector slows the session against the pruner's wall clock")
	}
	cfg := core.Bamboo()
	cfg.MVCC = true
	db := core.NewDB(cfg)
	defer db.Close()
	w, err := ycsb.Load(db, ycsb.Config{
		Rows: 20000, OpsPerTxn: 16, Theta: 0.9, ReadRatio: 0.5,
		Columns: 10, ColumnBytes: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	col := &stats.Collector{}
	sess := core.NewLockEngine(db).NewSession(0, col)
	gen := w.Generator()
	const txns = 2000
	fns := make([]core.TxnFunc, txns)
	for i := range fns {
		fns[i] = gen(0, i)
	}
	run := func(n int) {
		for i := 0; i < n; i++ {
			if err := sess.Run(fns[i%txns]); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(4 * txns)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(4 * txns)
	runtime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / (4 * txns)
	t.Logf("MVCC writes: %.2f allocs/txn (budget %.0f); %d write copies in recycled buffers, %d fresh",
		got, allocBudget, col.Counts[stats.ImagePoolRecycled], col.Counts[stats.ImageCopies])
	if got > allocBudget {
		t.Fatalf("MVCC write path allocs/txn = %.2f exceeds budget %.1f "+
			"(version nodes or write-copy images are not coming back from the detached tails)",
			got, allocBudget)
	}
}

// TestRowSizePinned makes the row's size a decision: rows live in
// page-aligned slabs, and what shares a cache line with a polled row moves
// the hotspot workloads by ~10 % on layout alone.
func TestRowSizePinned(t *testing.T) {
	if got := unsafe.Sizeof(storage.Row{}); got != 208 {
		t.Fatalf("storage.Row is %d bytes, want 208", got)
	}
}

// TestTxnSizePinned makes the transaction's size a decision too: a
// txn.Txn is what other workers read and write at every conflict, and its
// park token lives in the padding that fills it to one 64-byte line.
func TestTxnSizePinned(t *testing.T) {
	if got := unsafe.Sizeof(txn.Txn{}); got != 64 {
		t.Fatalf("txn.Txn is %d bytes, want 64", got)
	}
}

// TestAllocBudgetPartitioned asserts partition routing adds zero
// steady-state allocations: the same workload over a 4-partition hash-
// partitioned table (routing on every access, per-partition counters fed
// on every acquire) allocates exactly what the flat layout does.
func TestAllocBudgetPartitioned(t *testing.T) {
	flat := measureAllocsPerTxn(t, core.Bamboo())
	cfg := core.Bamboo()
	cfg.Partitions = 4
	parted := measureAllocsPerTxn(t, cfg)
	t.Logf("flat %.1f, 4-partition %.1f allocs/txn (budget %.0f)", flat, parted, allocBudget)
	if parted > allocBudget {
		t.Fatalf("partitioned allocs/txn = %.1f exceeds budget %.1f", parted, allocBudget)
	}
	if parted > flat+0.5 {
		t.Fatalf("partition routing allocates: %.1f vs %.1f allocs/txn flat", parted, flat)
	}
}

// TestAllocBudgetPartitionedWAL asserts the partition-routed commit path
// adds zero steady-state allocations: splitting each commit record by
// owning partition and submitting to per-partition logs reuses
// session-owned records, appenders, ticket and touched-partition scratch.
// Measured on the in-memory partition devices and on real file devices,
// both without fsyncs (FsyncNone, so the measurement is not fsync-bound)
// and with every commit waiting for its device's syncer (FsyncBatch).
func TestAllocBudgetPartitionedWAL(t *testing.T) {
	flat := measureAllocsPerTxn(t, core.Bamboo())
	mem := core.Bamboo()
	mem.Partitions = 4
	memAllocs := measureAllocsPerTxn(t, mem)
	file := core.Bamboo()
	file.Partitions = 4
	file.WALDir = t.TempDir()
	fileAllocs := measureAllocsPerTxn(t, file)
	file.WALDir, file.WALFsync = t.TempDir(), wal.FsyncBatch
	batchAllocs := measureAllocsPerTxn(t, file)
	t.Logf("flat %.1f, 4-partition mem-WAL %.1f, file-WAL %.1f, file-WAL fsync=batch %.1f allocs/txn (budget %.0f)",
		flat, memAllocs, fileAllocs, batchAllocs, allocBudget)
	for name, got := range map[string]float64{"mem": memAllocs, "file": fileAllocs, "file-batch": batchAllocs} {
		if got > allocBudget {
			t.Fatalf("%s-WAL allocs/txn = %.1f exceeds budget %.1f", name, got, allocBudget)
		}
		if got > flat+0.5 {
			t.Fatalf("%s-WAL partition-routed commit allocates: %.1f vs %.1f allocs/txn flat", name, got, flat)
		}
	}
}

// TestAllocBudgetUpgradePath asserts the SH→EX upgrade path adds zero
// steady-state allocations: with every update issued as an un-annotated
// read-modify-write, the only allocation the upgrade performs is the
// private write-image clone — the same clone a declared exclusive
// acquisition would have made — so allocs/txn must stay inside the same
// budget and within noise of the fully annotated run.
func TestAllocBudgetUpgradePath(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  core.Config
	}{
		{"bamboo", core.Bamboo()},
		{"woundwait", core.WoundWait()},
	} {
		t.Run(c.name, func(t *testing.T) {
			annotated := measureAllocsPerTxnRMW(t, c.cfg, 0)
			upgraded := measureAllocsPerTxnRMW(t, c.cfg, 1.0)
			t.Logf("%s: annotated %.1f, upgraded %.1f allocs/txn (budget %.0f)",
				c.name, annotated, upgraded, allocBudget)
			if upgraded > allocBudget {
				t.Fatalf("upgrade-path allocs/txn = %.1f exceeds budget %.1f", upgraded, allocBudget)
			}
			// Zero steady-state delta, with a half-alloc tolerance for
			// AllocsPerRun jitter.
			if upgraded > annotated+0.5 {
				t.Fatalf("upgrade path allocates: %.1f vs %.1f allocs/txn annotated",
					upgraded, annotated)
			}
		})
	}
}
