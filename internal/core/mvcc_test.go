package core_test

import (
	"bytes"
	"testing"
	"time"

	"bamboo/internal/core"
	"bamboo/internal/stats"
	"bamboo/internal/storage"
	"bamboo/internal/txn"
	"bamboo/internal/verify/verifytest"
)

// newMVCCDB opens base with MVCC on and a tight pruner tick, so short
// tests actually exercise watermark advance and background sweeps, not
// just install-time reuse.
func newMVCCDB(base core.Config) *core.DB {
	base.MVCC = true
	db := core.NewDB(base)
	core.SetPruneInterval(db, 500*time.Microsecond)
	return db
}

// TestMVCCSnapshotConsistency runs the snapshot oracle against every lock
// variant with MVCC on: concurrent transfers on the locking path, read-
// only sums on the snapshot path, and every observed sum must equal the
// invariant — a torn (non-transaction-consistent) snapshot fails fast.
func TestMVCCSnapshotConsistency(t *testing.T) {
	configs := map[string]core.Config{
		"BAMBOO":     core.Bamboo(),
		"WOUND_WAIT": core.WoundWait(),
		"WAIT_DIE":   core.WaitDie(),
		"NO_WAIT":    core.NoWait(),
	}
	for name, cfg := range configs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			db := newMVCCDB(cfg)
			defer db.Close()
			verifytest.RunSnapshotConsistency(t, core.NewLockEngine(db), 16, 4, 200)
		})
	}
}

// TestMVCCSnapshotConsistencyPartitioned repeats the oracle over a
// partitioned table: snapshot reads must stay transaction-consistent
// across partition boundaries (one commit timestamp covers a transfer
// whose legs live in different partitions).
func TestMVCCSnapshotConsistencyPartitioned(t *testing.T) {
	cfg := core.Bamboo()
	cfg.Partitions = 4
	db := newMVCCDB(cfg)
	defer db.Close()
	verifytest.RunSnapshotConsistency(t, core.NewLockEngine(db), 16, 4, 200)
}

// TestMVCCReadOnlyFallback pins the write-inside-read-only contract: a
// transaction that opts into the snapshot path and then writes restarts
// transparently through the locking path, commits exactly once, and is
// not counted as an abort.
func TestMVCCReadOnlyFallback(t *testing.T) {
	db := newMVCCDB(core.Bamboo())
	defer db.Close()
	schema := storage.NewSchema("kv", storage.Column{Name: "v", Type: storage.ColInt64})
	tbl := db.Catalog.MustCreateTable(schema, 4)
	for k := 0; k < 4; k++ {
		tbl.MustInsertRow(uint64(k), schema.NewRowImage())
	}
	eng := core.NewLockEngine(db)
	col := &stats.Collector{}
	sess := eng.NewSession(0, col)

	attempts := 0
	marked := make([]bool, 0, 2)
	err := sess.Run(func(tx core.Tx) error {
		attempts++
		marked = append(marked, core.MarkReadOnly(tx))
		if _, err := tx.Read(tbl.Get(0)); err != nil {
			return err
		}
		return tx.Update(tbl.Get(1), func(img []byte) {
			schema.SetInt64(img, 0, 42)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Fatalf("ran %d attempts, want 2 (snapshot attempt + locking retry)", attempts)
	}
	if !marked[0] || marked[1] {
		t.Fatalf("MarkReadOnly returned %v, want [true false] "+
			"(snapshot granted first, refused on the locking retry)", marked)
	}
	if col.Commits != 1 || col.Aborts != 0 {
		t.Fatalf("commits=%d aborts=%d, want 1 commit and 0 aborts "+
			"(the fallback restart must not count as an abort)", col.Commits, col.Aborts)
	}
	if got := schema.GetInt64(tbl.Get(1).Entry.CurrentData(), 0); got != 42 {
		t.Fatalf("update lost: v=%d, want 42", got)
	}

	// A subsequent declared-read-only transaction sees the committed write
	// from its snapshot.
	var seen int64
	if err := sess.Run(func(tx core.Tx) error {
		if !core.MarkReadOnly(tx) {
			t.Error("MarkReadOnly refused a fresh read-only transaction")
		}
		img, err := tx.Read(tbl.Get(1))
		if err != nil {
			return err
		}
		seen = schema.GetInt64(img, 0)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 42 {
		t.Fatalf("snapshot read saw %d, want 42", seen)
	}
	if col.Counts[stats.SnapshotReads] == 0 {
		t.Fatal("no snapshot reads recorded")
	}
}

// TestCommitHookDoesNotStopRecycling pins the image-ownership rule: a
// commit hook does not turn image recycling off — on the lock table (plain
// Bamboo) or on the version chains (MVCC) — and a hook that copies the
// images it keeps, as the OnCommit contract requires, still holds the
// values it was handed. 64 updates to one row must serve some write copies
// from recycled buffers.
//
// Under MVCC the reclaim watermark is advanced by hand between commits
// (the background pruner is parked on an hour-long tick) so the very next
// install deterministically detaches the superseded version.
func TestCommitHookDoesNotStopRecycling(t *testing.T) {
	mvcc := core.Bamboo()
	mvcc.MVCC = true
	for name, cfg := range map[string]core.Config{"lock-table": core.Bamboo(), "mvcc": mvcc} {
		t.Run(name, func(t *testing.T) {
			schema := storage.NewSchema("kv", storage.Column{Name: "v", Type: storage.ColInt64})
			type kept struct {
				img  []byte // a copy, as the OnCommit contract requires
				want int64
			}
			var copies []kept
			cfg.OnCommit = func(_ int, _, _ uint64, accesses []core.AccessInfo, _ int) {
				for _, a := range accesses {
					if a.Wrote != nil {
						copies = append(copies, kept{img: bytes.Clone(a.Wrote), want: schema.GetInt64(a.Wrote, 0)})
					}
				}
			}
			db := core.NewDB(cfg)
			defer db.Close()
			if cfg.MVCC {
				core.SetPruneInterval(db, time.Hour) // keep the sweep out of the race
			}
			tbl := db.Catalog.MustCreateTable(schema, 1)
			tbl.MustInsertRow(0, schema.NewRowImage())

			// Watermark-advance allocator on its own slot (the session runs
			// on worker 0, the parked pruner on TSWorkerSlots-1).
			alloc := txn.NewTSAlloc(1)
			if db.Snap != nil {
				db.Snap.Register(1)
			}

			const commits = 64
			col := &stats.Collector{}
			sess := core.NewLockEngine(db).NewSession(0, col)
			for i := 0; i < commits; i++ {
				v := int64(i + 1)
				if err := sess.Run(func(tx core.Tx) error {
					tx.DeclareOps(1)
					return tx.Update(tbl.Get(0), func(img []byte) {
						schema.SetInt64(img, 0, v)
					})
				}); err != nil {
					t.Fatal(err)
				}
				if db.Snap != nil {
					db.Snap.AdvanceReclaim(alloc)
				}
			}
			if len(copies) != commits {
				t.Fatalf("hook saw %d writes, want %d", len(copies), commits)
			}
			for i, c := range copies {
				if got := schema.GetInt64(c.img, 0); got != c.want {
					t.Fatalf("copy from commit %d holds v=%d, want %d", i, got, c.want)
				}
			}
			got := col.Counts[stats.ImagePoolRecycled]
			if got == 0 {
				t.Fatal("no write copy was served from a recycled image: a commit hook turned recycling off")
			}
			t.Logf("%d of %d write copies served from recycled images", got, commits)
		})
	}
}

// TestMVCCMarkReadOnlyOff: without MVCC, MarkReadOnly is a refusal, not
// an error — the transaction runs through the locking path unchanged.
func TestMVCCMarkReadOnlyOff(t *testing.T) {
	db := core.NewDB(core.Bamboo())
	defer db.Close()
	schema := storage.NewSchema("kv", storage.Column{Name: "v", Type: storage.ColInt64})
	tbl := db.Catalog.MustCreateTable(schema, 1)
	tbl.MustInsertRow(0, schema.NewRowImage())
	eng := core.NewLockEngine(db)
	col := &stats.Collector{}
	sess := eng.NewSession(0, col)
	if err := sess.Run(func(tx core.Tx) error {
		if core.MarkReadOnly(tx) {
			t.Error("MarkReadOnly granted snapshot mode on a non-MVCC engine")
		}
		_, err := tx.Read(tbl.Get(0))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if col.Commits != 1 || col.Counts[stats.SnapshotReads] != 0 {
		t.Fatalf("commits=%d snapshotReads=%d, want 1 and 0", col.Commits, col.Counts[stats.SnapshotReads])
	}
}

// TestMVCCRecoveryReseed: after a crash and WAL replay, snapshot reads
// must serve the *recovered* images, not the loader's base seed — replay
// applies images beneath the version chains, and the post-replay reseed
// pass is what re-anchors them.
func TestMVCCRecoveryReseed(t *testing.T) {
	dir := t.TempDir()
	run := core.Bamboo()
	run.WALDir = dir

	db := newMVCCDB(run)
	tbl := loadXfer(t, db)
	schema := tbl.Schema
	eng := core.NewLockEngine(db)
	sess := eng.NewSession(0, &stats.Collector{})
	for i := 0; i < 10; i++ {
		if err := sess.Run(func(tx core.Tx) error {
			tx.DeclareOps(1)
			return tx.Update(tbl.Get(0), func(img []byte) {
				schema.AddInt64(img, 0, 7)
			})
		}); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()

	// Recover into a fresh MVCC instance: same deterministic loader, then
	// replay. (No WALDir on the recovering config — replay reads the files
	// directly, as the recovery tooling does.)
	db2 := newMVCCDB(core.Bamboo())
	defer db2.Close()
	tbl2 := loadXfer(t, db2)
	if _, err := db2.ReplayDir(dir, false); err != nil {
		t.Fatal(err)
	}

	want := int64(xferInitial + 10*7)
	eng2 := core.NewLockEngine(db2)
	col := &stats.Collector{}
	sess2 := eng2.NewSession(0, col)
	var got int64
	if err := sess2.Run(func(tx core.Tx) error {
		if !core.MarkReadOnly(tx) {
			t.Error("MarkReadOnly refused on the recovered MVCC instance")
		}
		img, err := tx.Read(tbl2.Get(0))
		if err != nil {
			return err
		}
		got = tbl2.Schema.GetInt64(img, 0)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("post-recovery snapshot read saw %d, want %d (stale version chain)", got, want)
	}
	if col.Counts[stats.SnapshotReads] == 0 {
		t.Fatal("post-recovery read did not use the snapshot path")
	}
}

// TestSnapshotScanBoundedByWorkers: every snapshot acquisition and every
// watermark advance scans the snapshot table up to its highest registered
// slot, so what registers decides what a read-only transaction costs. An
// MVCC DB with two sessions must scan two slots — the pruner draws its
// timestamps from the last allocator id of 1 024 but publishes nothing,
// and registering that slot made every scan walk all of them.
func TestSnapshotScanBoundedByWorkers(t *testing.T) {
	db := newMVCCDB(core.Bamboo())
	defer db.Close()
	eng := core.NewLockEngine(db)
	for w := 0; w < 2; w++ {
		eng.NewSession(w, &stats.Collector{})
	}
	if got := db.Snap.ScanBound(); got != 2 {
		t.Fatalf("snapshot table scans %d slots with two sessions, want 2", got)
	}
}
