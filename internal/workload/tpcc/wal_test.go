package tpcc_test

import (
	"path/filepath"
	"testing"

	"bamboo/internal/chop"
	"bamboo/internal/core"
	"bamboo/internal/occ"
	"bamboo/internal/verify/verifytest"
	"bamboo/internal/workload/tpcc"
)

// runLogged runs TPC-C through one engine on a DB with four warehouses
// over four partitions and a file-backed log per partition, then checks
// that log p holds only partition p's writes and that replaying the logs
// rebuilds the committed state. Payments to a remote customer and the
// hash-routed history inserts make commits span partitions.
func runLogged(t *testing.T, cc core.Config, cfg tpcc.Config, run func(*core.DB, *tpcc.Workload) error) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "wal")
	cc.Partitions = 4
	cc.WALDir = dir
	live := core.NewDB(cc)
	w, err := tpcc.Load(live, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(live, w); err != nil {
		t.Fatal(err)
	}
	if err := w.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	fresh := core.NewDB(core.Config{Partitions: 4})
	defer fresh.Close()
	if _, err := tpcc.Load(fresh, cfg); err != nil {
		t.Fatal(err)
	}
	verifytest.RequirePartitionLocalLogs(t, dir, live, fresh)
}

func TestLogPartitionLocalBamboo(t *testing.T) {
	runLogged(t, core.Bamboo(), testConfig(4), func(db *core.DB, w *tpcc.Workload) error {
		return core.RunN(core.NewLockEngine(db), 4, 100, w.Generator()).Err
	})
}

func TestLogPartitionLocalSilo(t *testing.T) {
	runLogged(t, core.Config{}, testConfig(4), func(db *core.DB, w *tpcc.Workload) error {
		return core.RunN(occ.New(db), 4, 100, w.Generator()).Err
	})
}

// TestLogPartitionLocalIC3 runs Payments only. In the NewOrder+Payment
// mix IC3's column-level analysis lets a NewOrder (D_NEXT_O_ID) and a
// Payment (D_YTD) write one district row concurrently, and each logs its
// whole private image of the row, so replaying the mix can bring back a
// stale column: a limit of whole-image log records under column-granular
// concurrency, not of the partition routing checked here. Payments all
// write the same columns of every row they share, so their records
// replay exactly.
func TestLogPartitionLocalIC3(t *testing.T) {
	cfg := testConfig(4)
	cfg.PaymentFraction = 1
	runLogged(t, core.Config{}, cfg, func(db *core.DB, w *tpcc.Workload) error {
		return core.RunN(chop.New(db), 4, 100, w.IC3Generator()).Err
	})
}
