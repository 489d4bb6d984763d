package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bamboo/internal/core"
	"bamboo/internal/occ"
	"bamboo/internal/stats"
	"bamboo/internal/storage"
	"bamboo/internal/verify/verifytest"
	"bamboo/internal/wal"
	"bamboo/internal/workload/ycsb"
)

// hashDevice is a log device that keeps only the SHA-256 of every encoded
// record appended to it, in order. Single-session tests only: it has no
// lock of its own.
type hashDevice struct {
	h   hash.Hash
	lsn uint64
}

func newHashDevice() *hashDevice { return &hashDevice{h: sha256.New()} }

func (d *hashDevice) Append(rec []byte) (uint64, error) {
	d.h.Write(rec)
	d.lsn++
	return d.lsn, nil
}

func (d *hashDevice) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// Hashes of the single-partition commit log, recorded at commit e3b86d0 —
// the last tree whose P=1 sessions built their records in a flat path of
// their own (commitRecord) instead of the partition-routed one. The routed
// path with one log must produce the same bytes: same record boundaries,
// same write order (exclusive accesses in access order, then inserts),
// same transaction ids.
const (
	goldenYCSBLog   = "180eeb6a7f7abad4af50ecc6a26de4831717c291d2450b7019642caea6cab5e6"
	goldenInsertLog = "823371b6f3cc7929bdec46362f18f1628066b57d15206d50363c567195a2aed1"
)

// TestSinglePartitionLogGolden pins "the P=1 routed log is the flat log,
// byte for byte": one session of seeded YCSB, and one of a hand-written
// body that updates two rows and inserts a third with a fixed image, each
// against a device that hashes what it is handed.
func TestSinglePartitionLogGolden(t *testing.T) {
	t.Run("ycsb", func(t *testing.T) {
		dev := newHashDevice()
		cfg := core.Bamboo()
		cfg.LogDevice = dev
		db := core.NewDB(cfg)
		defer db.Close()
		w, err := ycsb.Load(db, ycsb.Config{
			Rows: 2000, OpsPerTxn: 16, Theta: 0.6, ReadRatio: 0.5,
			Columns: 10, ColumnBytes: 100, Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		sess := core.NewLockEngine(db).NewSession(0, &stats.Collector{})
		gen := w.Generator()
		for i := 0; i < 200; i++ {
			if err := sess.Run(gen(0, i)); err != nil {
				t.Fatal(err)
			}
		}
		if got := dev.sum(); got != goldenYCSBLog {
			t.Fatalf("ycsb log hash = %s over %d records, want %s", got, dev.lsn, goldenYCSBLog)
		}
	})
	t.Run("update-insert", func(t *testing.T) {
		dev := newHashDevice()
		cfg := core.WoundWait()
		cfg.LogDevice = dev
		db := core.NewDB(cfg)
		defer db.Close()
		tbl := testTable(db, 8)
		sess := core.NewLockEngine(db).NewSession(0, &stats.Collector{})
		for i := 0; i < 16; i++ {
			k := uint64(i)
			if err := sess.Run(func(tx core.Tx) error {
				for _, key := range []uint64{k % 8, (k + 3) % 8} {
					if err := tx.Update(tbl.Get(key), func(img []byte) {
						tbl.Schema.AddInt64(img, 0, int64(k)+1)
					}); err != nil {
						return err
					}
				}
				img := tbl.Schema.NewRowImage()
				tbl.Schema.SetInt64(img, 0, int64(1000+k))
				return tx.Insert(tbl, 100+k, img)
			}); err != nil {
				t.Fatal(err)
			}
		}
		if got := dev.sum(); got != goldenInsertLog {
			t.Fatalf("update-insert log hash = %s over %d records, want %s", got, dev.lsn, goldenInsertLog)
		}
	})
}

// commitPathVariant is one engine of TestCommitPathMatrix: a lock
// configuration, or Silo.
type commitPathVariant struct {
	name string
	cfg  core.Config
	silo bool
}

func (v commitPathVariant) engine(db *core.DB) core.Engine {
	if !v.silo {
		return core.NewLockEngine(db)
	}
	return occ.New(db)
}

// TestCommitPathMatrix runs the one commit path in every configuration
// that used to select a path of its own — single vs partitioned log, MVCC
// install vs plain, checkpoint gate held vs not — and in both commit
// waits: gc=false logs with WALFsync=none, where a commit is done when
// its append returns, and gc=true with WALFsync=batch, where it waits for
// its device's syncer to group its fsync with its neighbours'. It runs
// each lock variant, and Silo in the cells it accepts
// (no MVCC, no checkpoints), under four oracles: transfers that cross
// partitions conserve the total (and, with MVCC, every snapshot sums to
// it), every write in partition log p belongs to partition p, replaying
// the logs into a fresh DB reproduces the survivor's rows, committed
// inserts included, and a second DB of the same configuration runs a
// serializable history. The full run covers the whole product; -short
// runs one lock variant per cell, chosen so that every variant still
// meets both values of every other axis (pairwise coverage), and Silo in
// all its cells.
func TestCommitPathMatrix(t *testing.T) {
	variants := []commitPathVariant{
		{name: "BAMBOO", cfg: core.Bamboo()},
		{name: "WOUND_WAIT", cfg: core.WoundWait()},
		{name: "WAIT_DIE", cfg: core.WaitDie()},
		{name: "NO_WAIT", cfg: core.NoWait()},
		{name: "SILO", silo: true},
	}
	for pi, parts := range []int{1, 2} {
		for mi, mvcc := range []bool{false, true} {
			for gi, gate := range []bool{false, true} {
				for ci, policy := range []wal.FsyncPolicy{wal.FsyncNone, wal.FsyncBatch} {
					gc := policy == wal.FsyncBatch
					name := fmt.Sprintf("P%d/mvcc=%t/gate=%t/gc=%t", parts, mvcc, gate, gc)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						for vi, v := range variants {
							if v.silo && (mvcc || gate) {
								continue // occ.New refuses both
							}
							// Four binary axes, four lock variants: fixing any
							// one axis leaves the other three free, so pi^gi
							// and mi^ci take all four combinations, and each
							// variant meets every value of every axis.
							if testing.Short() && !v.silo && vi != 2*(pi^gi)+(mi^ci) {
								continue
							}
							t.Run(v.name, func(t *testing.T) {
								t.Parallel()
								cell := func(dir string) core.Config {
									c := v.cfg
									c.Partitions = parts
									c.MVCC = mvcc
									c.WALDir = filepath.Join(dir, "wal")
									c.WALFsync = policy
									if gate {
										c.Checkpoint = core.CheckpointConfig{
											Dir: filepath.Join(dir, "ckpt"), Interval: time.Hour, SegmentBytes: 4 << 10,
										}
									}
									return c
								}
								testCommitPath(t, v, cell(t.TempDir()))

								h := verifytest.NewHistory()
								cfg := cell(t.TempDir())
								cfg.OnCommit = h.Hook
								db := core.NewDB(cfg)
								defer db.Close()
								verifytest.RunSerializability(t, v.engine(db), h, verifytest.DefaultOptions())
							})
						}
					})
				}
			}
		}
	}
}

func testCommitPath(t *testing.T, v commitPathVariant, cfg core.Config) {
	const workers, perWorker = 4, 60
	mvcc, gate := cfg.MVCC, cfg.Checkpoint.Enabled()
	db := core.NewDB(cfg)
	tbl := loadXfer(t, db)
	schema := tbl.Schema
	const want = int64(xferRows * xferInitial)

	var torn atomic.Int64 // first inconsistent snapshot sum (0 = none)
	gen := func(worker, seq int) core.TxnFunc {
		if mvcc && worker == workers-1 {
			return func(tx core.Tx) error {
				core.MarkReadOnly(tx)
				var sum int64
				for k := uint64(0); k < xferRows; k++ {
					img, err := tx.Read(tbl.Get(k))
					if err != nil {
						return err
					}
					sum += schema.GetInt64(img, 0)
				}
				if sum != want {
					torn.CompareAndSwap(0, sum)
				}
				return nil
			}
		}
		rng := rand.New(rand.NewSource(int64(worker)*1e6 + int64(seq)))
		from := uint64(rng.Intn(xferRows))
		to := uint64(rng.Intn(xferRows - 1))
		if to >= from {
			to++
		}
		amount := int64(rng.Intn(50) + 1)
		// One empty account per transfer: the insert loop and the
		// partition routing of inserts run in every cell.
		fresh := uint64(1000 + worker*perWorker + seq)
		return func(tx core.Tx) error {
			tx.DeclareOps(2)
			if err := tx.Update(tbl.Get(from), func(img []byte) {
				schema.AddInt64(img, 0, -amount)
			}); err != nil {
				return err
			}
			if err := tx.Update(tbl.Get(to), func(img []byte) {
				schema.AddInt64(img, 0, amount)
			}); err != nil {
				return err
			}
			return tx.Insert(tbl, fresh, schema.NewRowImage())
		}
	}
	eng := v.engine(db)
	for round := 0; round < 2; round++ {
		res := core.RunN(eng, workers, perWorker/2, func(worker, seq int) core.TxnFunc {
			return gen(worker, round*perWorker/2+seq)
		})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if gate {
			if err := db.CheckpointNow(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s := torn.Load(); s != 0 {
		t.Fatalf("snapshot read summed to %d, want %d", s, want)
	}
	var total int64
	tbl.Range(func(k uint64, r *storage.Row) bool {
		if ret, own, wait := r.Entry.Snapshot(); ret+own+wait != 0 {
			t.Errorf("row %d entry not drained: retired=%d owners=%d waiters=%d", k, ret, own, wait)
		}
		total += schema.GetInt64(r.CommittedImage(), 0)
		return true
	})
	if total != want {
		t.Fatalf("total = %d, want %d (money not conserved)", total, want)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	rdb := core.NewDB(core.Config{Partitions: cfg.Partitions})
	defer rdb.Close()
	loadXfer(t, rdb)
	verifytest.RequirePartitionLocalLogs(t, cfg.WALDir, db, rdb)
}

// failOnceDevice fails its failAt-th Append and accepts every other one.
type failOnceDevice struct {
	mu     sync.Mutex
	n      int
	failAt int
	err    error
}

func (d *failOnceDevice) Append([]byte) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.n++
	if d.n == d.failAt {
		return 0, d.err
	}
	return uint64(d.n), nil
}

// TestLogFailureReleasesLocks: a failed log append ends the session's run
// with the device error, but must not leave the attempt's locks held —
// the other worker, updating the same row, has to run to completion. The
// row then counts exactly the commits that were logged.
func TestLogFailureReleasesLocks(t *testing.T) {
	for name, cfg := range map[string]core.Config{
		"WOUND_WAIT": core.WoundWait(),
		"BAMBOO":     core.Bamboo(),
	} {
		t.Run(name, func(t *testing.T) {
			errDevice := errors.New("device full")
			cfg.LogDevice = &failOnceDevice{failAt: 3, err: errDevice}
			db := core.NewDB(cfg)
			defer db.Close()
			tbl := testTable(db, 1)
			done := make(chan core.RunResult, 1)
			go func() {
				done <- core.RunN(core.NewLockEngine(db), 2, 50, func(int, int) core.TxnFunc {
					return func(tx core.Tx) error {
						return tx.Update(tbl.Get(0), func(img []byte) {
							tbl.Schema.AddInt64(img, 0, 1)
						})
					}
				})
			}()
			var res core.RunResult
			select {
			case res = <-done:
			case <-time.After(3 * time.Second):
				t.Fatal("RunN still running 3s after a failed append: the failing attempt kept its locks")
			}
			if !errors.Is(res.Err, errDevice) {
				t.Fatalf("RunN error = %v, want the device error", res.Err)
			}
			if res.Report.Commits < 50 {
				t.Fatalf("%d commits, want at least the surviving worker's 50", res.Report.Commits)
			}
			if got := tbl.Schema.GetInt64(tbl.Get(0).Entry.CurrentData(), 0); got != int64(res.Report.Commits) {
				t.Fatalf("row counts %d increments over %d commits: the unlogged write was not rolled back",
					got, res.Report.Commits)
			}
		})
	}
}
