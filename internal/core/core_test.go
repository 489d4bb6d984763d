package core_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"bamboo/internal/core"
	"bamboo/internal/stats"
	"bamboo/internal/storage"
	"bamboo/internal/verify/verifytest"
	"bamboo/internal/wal"
	"bamboo/internal/workload/ycsb"
)

func newCollector() *stats.Collector { return &stats.Collector{} }

// protocolConfigs enumerates every lock-based configuration under test.
func protocolConfigs() map[string]core.Config {
	return map[string]core.Config{
		"BAMBOO":       core.Bamboo(),
		"BAMBOO-base":  core.BambooBase(),
		"BAMBOO-noopt": {Variant: core.Bamboo().Variant}, // no O1–O4
		"WOUND_WAIT":   core.WoundWait(),
		"WAIT_DIE":     core.WaitDie(),
		"NO_WAIT":      core.NoWait(),
		"WW-dynTS":     {Variant: core.WoundWait().Variant, DynamicTS: true},
	}
}

func TestSerializabilityAllProtocols(t *testing.T) {
	for name, cfg := range protocolConfigs() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			h := verifytest.NewHistory()
			cfg.OnCommit = h.Hook
			db := core.NewDB(cfg)
			verifytest.RunSerializability(t, core.NewLockEngine(db), h, verifytest.DefaultOptions())
		})
	}
}

func TestSerializabilityHighContention(t *testing.T) {
	// A 2-row table maximizes dirty-read chains and cascades for Bamboo.
	for _, name := range []string{"BAMBOO", "BAMBOO-base"} {
		cfg := protocolConfigs()[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			h := verifytest.NewHistory()
			cfg.OnCommit = h.Hook
			db := core.NewDB(cfg)
			opts := verifytest.DefaultOptions()
			opts.Rows = 2
			opts.OpsPerTxn = 2
			opts.WriteRatio = 0.8
			opts.Workers = 12
			opts.PerWorker = 200
			verifytest.RunSerializability(t, core.NewLockEngine(db), h, opts)
		})
	}
}

func TestBankConservationAllProtocols(t *testing.T) {
	for name, cfg := range protocolConfigs() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			db := core.NewDB(cfg)
			verifytest.RunBankConservation(t, core.NewLockEngine(db), 10, 8, 150)
		})
	}
}

// TestAbortOnlyVariantsMakeProgress pins the default retry backoff of the
// two variants whose only answer to a conflict is to abort. A retry with
// no backoff is a spin on the conflicting lock, and on two cores a
// fig6-shaped run (YCSB theta 0.9, 4 workers) then aborts ≈ 100 % of its
// attempts; with the default jitter the abort rate is a few percent.
func TestAbortOnlyVariantsMakeProgress(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("the retry spin needs a second core to starve the lock holder")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for name, cfg := range map[string]core.Config{
		"WAIT_DIE": core.WaitDie(),
		"NO_WAIT":  core.NoWait(),
	} {
		t.Run(name, func(t *testing.T) {
			db := core.NewDB(cfg)
			defer db.Close()
			wcfg := ycsb.DefaultConfig()
			wcfg.Rows = 20000
			w, err := ycsb.Load(db, wcfg)
			if err != nil {
				t.Fatal(err)
			}
			res := core.RunN(core.NewLockEngine(db), 4, 300, w.Generator())
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			t.Logf("abort rate %.3f, %.0f txn/s", res.Report.AbortRate, res.Report.ThroughputTPS)
			if res.Report.AbortRate >= 0.5 {
				t.Errorf("abort rate %.3f: aborted attempts retry without backing off", res.Report.AbortRate)
			}
		})
	}
}

func testTable(db *core.DB, rows int) *storage.Table {
	schema := storage.NewSchema("t",
		storage.Column{Name: "v", Type: storage.ColInt64})
	tbl := db.Catalog.MustCreateTable(schema, rows)
	for k := 0; k < rows; k++ {
		tbl.MustInsertRow(uint64(k), nil)
	}
	return tbl
}

func TestUserAbortIsFinalAndRollsBack(t *testing.T) {
	db := core.NewDB(core.Bamboo())
	tbl := testTable(db, 1)
	e := core.NewLockEngine(db)

	calls := 0
	res := core.RunN(e, 1, 1, func(_, _ int) core.TxnFunc {
		return func(tx core.Tx) error {
			calls++
			if err := tx.Update(tbl.Get(0), func(img []byte) {
				tbl.Schema.SetInt64(img, 0, 99)
			}); err != nil {
				return err
			}
			return core.ErrUserAbort
		}
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if calls != 1 {
		t.Fatalf("user abort retried: %d calls", calls)
	}
	if res.Report.Commits != 0 || res.Report.Aborts != 1 {
		t.Fatalf("commits=%d aborts=%d, want 0/1", res.Report.Commits, res.Report.Aborts)
	}
	if got := tbl.Schema.GetInt64(tbl.Get(0).Entry.CurrentData(), 0); got != 0 {
		t.Fatalf("value = %d after user abort, want rollback to 0", got)
	}
	if res.Report.AbortsBy["user"] != 1 {
		t.Fatalf("aborts by cause = %v, want user:1", res.Report.AbortsBy)
	}
}

// TestUpgradeReadThenUpdate covers the un-annotated read-modify-write
// shape on every lock-based protocol: read a row, then update it based on
// the value read. The executor upgrades the shared lock in place.
func TestUpgradeReadThenUpdate(t *testing.T) {
	for name, cfg := range protocolConfigs() {
		t.Run(name, func(t *testing.T) {
			db := core.NewDB(cfg)
			tbl := testTable(db, 1)
			e := core.NewLockEngine(db)
			sess := e.NewSession(0, newCollector())
			err := sess.Run(func(tx core.Tx) error {
				img, err := tx.Read(tbl.Get(0))
				if err != nil {
					return err
				}
				seen := tbl.Schema.GetInt64(img, 0)
				return tx.Update(tbl.Get(0), func(img []byte) {
					tbl.Schema.SetInt64(img, 0, seen+41)
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := tbl.Schema.GetInt64(tbl.Get(0).Entry.CurrentData(), 0); got != 41 {
				t.Fatalf("value = %d, want 41", got)
			}
		})
	}
}

// TestUpgradeConcurrentIncrements is the classic upgrade lost-update
// test: many workers read a counter and then update it through an SH→EX
// upgrade. Two readers of the same value upgrading concurrently must
// serialize (the younger aborts and retries on the fresh value), so the
// final counter equals the committed increment count exactly.
func TestUpgradeConcurrentIncrements(t *testing.T) {
	for name, cfg := range protocolConfigs() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			db := core.NewDB(cfg)
			tbl := testTable(db, 1)
			e := core.NewLockEngine(db)
			const workers, perWorker = 8, 100
			res := core.RunN(e, workers, perWorker, func(_, _ int) core.TxnFunc {
				return func(tx core.Tx) error {
					img, err := tx.Read(tbl.Get(0))
					if err != nil {
						return err
					}
					seen := tbl.Schema.GetInt64(img, 0)
					return tx.Update(tbl.Get(0), func(img []byte) {
						tbl.Schema.SetInt64(img, 0, seen+1)
					})
				}
			})
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			want := int64(workers * perWorker)
			if got := tbl.Schema.GetInt64(tbl.Get(0).Entry.CurrentData(), 0); got != want {
				t.Fatalf("counter = %d, want %d (lost update through an upgrade)", got, want)
			}
		})
	}
}

// TestUpgradeThenRetireVisible checks the Bamboo-specific composition:
// an upgraded write retires like a declared one, making the dirty value
// visible to a dependent reader before the writer commits.
func TestUpgradeThenRetireVisible(t *testing.T) {
	db := core.NewDB(core.BambooBase()) // every write retires eagerly
	tbl := testTable(db, 1)
	e := core.NewLockEngine(db)
	sess := e.NewSession(0, newCollector())
	if err := sess.Run(func(tx core.Tx) error {
		if _, err := tx.Read(tbl.Get(0)); err != nil {
			return err
		}
		return tx.Update(tbl.Get(0), func(img []byte) {
			tbl.Schema.SetInt64(img, 0, 7)
		})
	}); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Schema.GetInt64(tbl.Get(0).Entry.CurrentData(), 0); got != 7 {
		t.Fatalf("value = %d, want 7", got)
	}
}

// TestUpgradeSerializability runs the randomized history checker with a
// read-modify-write fraction so upgrade interleavings (wounds mid-wait,
// cascades through upgraded writers, upgrade-upgrade conflicts) are
// covered by the full serializability oracle.
func TestUpgradeSerializability(t *testing.T) {
	for name, cfg := range protocolConfigs() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			h := verifytest.NewHistory()
			cfg.OnCommit = h.Hook
			db := core.NewDB(cfg)
			opts := verifytest.DefaultOptions()
			opts.RMWRatio = 0.5
			verifytest.RunSerializability(t, core.NewLockEngine(db), h, opts)
		})
	}
}

func TestRepeatedUpdateSameRowWithinWindow(t *testing.T) {
	// With declared ops and δ, the executor holds back the last writes,
	// so a second Update of the same row inside the unretired window
	// mutates the same private copy.
	cfg := core.Bamboo()
	cfg.Delta = 1.0 // retire nothing eagerly
	db := core.NewDB(cfg)
	tbl := testTable(db, 1)
	e := core.NewLockEngine(db)
	sess := e.NewSession(0, newCollector())
	err := sess.Run(func(tx core.Tx) error {
		tx.DeclareOps(2)
		for i := 0; i < 2; i++ {
			if err := tx.Update(tbl.Get(0), func(img []byte) {
				tbl.Schema.AddInt64(img, 0, 5)
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Schema.GetInt64(tbl.Get(0).Entry.CurrentData(), 0); got != 10 {
		t.Fatalf("value = %d, want 10", got)
	}
}

func TestSecondWriteAfterRetireIsFatal(t *testing.T) {
	db := core.NewDB(core.BambooBase()) // every write retires eagerly
	tbl := testTable(db, 1)
	e := core.NewLockEngine(db)
	sess := e.NewSession(0, newCollector())
	err := sess.Run(func(tx core.Tx) error {
		tx.DeclareOps(2)
		if err := tx.Update(tbl.Get(0), func([]byte) {}); err != nil {
			return err
		}
		return tx.Update(tbl.Get(0), func([]byte) {})
	})
	if err == nil || !strings.Contains(err.Error(), "retired") {
		t.Fatalf("err = %v, want retired-row write rejection", err)
	}
}

func TestInsertVisibleAfterCommit(t *testing.T) {
	db := core.NewDB(core.Bamboo())
	tbl := testTable(db, 1)
	e := core.NewLockEngine(db)
	sess := e.NewSession(0, newCollector())

	img := tbl.Schema.NewRowImage()
	tbl.Schema.SetInt64(img, 0, 7)
	if err := sess.Run(func(tx core.Tx) error {
		return tx.Insert(tbl, 100, img)
	}); err != nil {
		t.Fatal(err)
	}
	row := tbl.Get(100)
	if row == nil {
		t.Fatal("inserted row not found after commit")
	}
	if got := tbl.Schema.GetInt64(row.Entry.CurrentData(), 0); got != 7 {
		t.Fatalf("inserted value = %d, want 7", got)
	}

	// Aborted inserts never become visible.
	if err := sess.Run(func(tx core.Tx) error {
		if err := tx.Insert(tbl, 101, tbl.Schema.NewRowImage()); err != nil {
			return err
		}
		return core.ErrUserAbort
	}); err != nil {
		t.Fatal(err)
	}
	if tbl.Get(101) != nil {
		t.Fatal("aborted insert became visible")
	}
}

func TestWALRecordsCommittedWrites(t *testing.T) {
	dev := wal.NewMemDevice(true)
	cfg := core.Bamboo()
	cfg.LogDevice = dev
	db := core.NewDB(cfg)
	tbl := testTable(db, 2)
	e := core.NewLockEngine(db)
	sess := e.NewSession(0, newCollector())

	if err := sess.Run(func(tx core.Tx) error {
		return tx.Update(tbl.Get(1), func(img []byte) {
			tbl.Schema.SetInt64(img, 0, 42)
		})
	}); err != nil {
		t.Fatal(err)
	}
	recs, err := dev.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("wal has %d records, want 1", len(recs))
	}
	w := recs[0].Writes
	if len(w) != 1 || w[0].Table != "t" || w[0].Key != 1 {
		t.Fatalf("record writes = %+v", w)
	}
	if got := tbl.Schema.GetInt64(w[0].Image, 0); got != 42 {
		t.Fatalf("logged image value = %d, want 42", got)
	}

	// Read-only transactions log nothing.
	if err := sess.Run(func(tx core.Tx) error {
		_, err := tx.Read(tbl.Get(0))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if n := dev.Stats().Appends; n != 1 {
		t.Fatalf("wal grew on read-only commit: %d records", n)
	}
}

func TestProtocolNames(t *testing.T) {
	cases := map[string]core.Config{
		"BAMBOO":      core.Bamboo(),
		"BAMBOO-base": core.BambooBase(),
		"WOUND_WAIT":  core.WoundWait(),
		"WAIT_DIE":    core.WaitDie(),
		"NO_WAIT":     core.NoWait(),
	}
	for want, cfg := range cases {
		if got := core.NewDB(cfg).ProtocolName(); got != want {
			t.Errorf("ProtocolName = %q, want %q", got, want)
		}
	}
}

func TestFatalErrorPropagates(t *testing.T) {
	db := core.NewDB(core.Bamboo())
	e := core.NewLockEngine(db)
	sess := e.NewSession(0, newCollector())
	boom := errors.New("boom")
	if err := sess.Run(func(tx core.Tx) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}
