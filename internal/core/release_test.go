package core_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bamboo/internal/core"
	"bamboo/internal/storage"
	"bamboo/internal/wal"
)

// A commit sequences its record under its locks, releases them, and only
// then writes the record (core.CommitLog). The tests below stall or fail
// that write through wal.WriteHook, after the release, and check what
// the engine may and may not do meanwhile. None of them runs in parallel
// with another test: the hook is the process's.

// stallNextWrite makes the next file-device write wait until release is
// called; stalled is closed once it waits. Later writes go through.
func stallNextWrite(t *testing.T) (stalled <-chan struct{}, release func()) {
	return stallNextWriteTo(t, -1)
}

// stallNextWriteTo is stallNextWrite for the next write to partition
// p's log, or to any log if p is negative.
func stallNextWriteTo(t *testing.T, p int) (stalled <-chan struct{}, release func()) {
	t.Helper()
	ch, gate := make(chan struct{}), make(chan struct{})
	var first, rel sync.Once
	orig := wal.WriteHook
	wal.WriteHook = func(f *os.File, b []byte) (int, error) {
		if p < 0 || logPartition(f) == p {
			first.Do(func() {
				close(ch)
				<-gate
			})
		}
		return orig(f, b)
	}
	release = func() { rel.Do(func() { close(gate) }) }
	t.Cleanup(func() {
		release()
		wal.WriteHook = orig
	})
	return ch, release
}

// logPartition is the partition whose log segment f is.
func logPartition(f *os.File) int {
	var p int
	fmt.Sscanf(filepath.Base(f.Name()), "wal-%03d-", &p)
	return p
}

// walDB opens a DB on cfg whose logs are segment chains in
// a fresh directory, returned with it. The DB closes at cleanup, after
// a stalled write opened later is released.
func walDB(t *testing.T, cfg core.Config, policy wal.FsyncPolicy) (*core.DB, string) {
	t.Helper()
	dir := t.TempDir()
	cfg.WALDir, cfg.WALFsync = dir, policy
	db := core.NewDB(cfg)
	t.Cleanup(func() { db.Close() })
	return db, dir
}

// loggedValues replays partition p's log in dir and returns the value
// column of every write, in log order.
func loggedValues(t *testing.T, dir string, p int, schema *storage.Schema) []int64 {
	t.Helper()
	var vals []int64
	if _, err := wal.ReplayPartition(dir, p, 0, func(r *wal.Record) error {
		for _, w := range r.Writes {
			vals = append(vals, schema.GetInt64(w.Image, 0))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return vals
}

// seqReaches waits until partition 0's log has sequenced n records.
func seqReaches(t *testing.T, db *core.DB, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); db.PLog.Seq(0) < n; {
		if time.Now().After(deadline) {
			t.Fatalf("the log sequenced %d records in 5 s, want %d", db.PLog.Seq(0), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// await returns what ch delivers, failing the test if that takes 5 s: a
// commit that never returns, or a write that never starts.
func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: nothing after 5 s", what)
		panic("unreachable")
	}
}

// stillWaiting fails the test if any of done has delivered 30 ms on.
func stillWaiting(t *testing.T, what string, done ...<-chan error) {
	t.Helper()
	time.Sleep(30 * time.Millisecond)
	for _, ch := range done {
		select {
		case err := <-ch:
			t.Fatalf("%s returned (%v) while the writer's frame was unwritten", what, err)
		default:
		}
	}
}

// TestDependentFollowsStalledWriter: a Bamboo transaction that read a
// retired write commits after its writer released, while the writer's
// record is sequenced but unwritten. Its own record must follow the
// writer's in the log, and its Run must not return before both are in
// the file.
func TestDependentFollowsStalledWriter(t *testing.T) {
	db, dir := walDB(t, core.BambooBase(), wal.FsyncNone) // every write retires eagerly
	tbl := testTable(db, 1)
	e := core.NewLockEngine(db)
	writer, dependent := e.NewSession(0, newCollector()), e.NewSession(1, newCollector())
	stalled, release := stallNextWrite(t)

	retired, commit := make(chan struct{}), make(chan struct{})
	var once sync.Once
	wDone := make(chan error, 1)
	go func() {
		wDone <- writer.Run(func(tx core.Tx) error {
			if err := tx.Update(tbl.Get(0), func(img []byte) { tbl.Schema.SetInt64(img, 0, 1) }); err != nil {
				return err
			}
			once.Do(func() { close(retired) })
			<-commit
			return nil
		})
	}()
	await(t, retired, "the writer's update")
	var seen atomic.Int64
	read := make(chan struct{}, 1)
	dDone := make(chan error, 1)
	go func() {
		dDone <- dependent.Run(func(tx core.Tx) error {
			return tx.Update(tbl.Get(0), func(img []byte) {
				seen.Store(tbl.Schema.GetInt64(img, 0))
				tbl.Schema.AddInt64(img, 0, 1)
				select {
				case read <- struct{}{}:
				default:
				}
			})
		})
	}()
	await(t, read, "the dependent's read") // a dirty read: the writer has not committed
	if got := seen.Load(); got != 1 {
		t.Fatalf("the dependent read %d, want the retired write's 1", got)
	}
	close(commit)
	await(t, stalled, "the writer's write")
	seqReaches(t, db, 2)
	stillWaiting(t, "a commit", wDone, dDone)
	release()
	for _, ch := range []chan error{wDone, dDone} {
		if err := await(t, ch, "a commit"); err != nil {
			t.Fatal(err)
		}
	}
	if got := loggedValues(t, dir, 0, tbl.Schema); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("the log holds %v, want the writer's 1 then the dependent's 2", got)
	}
}

// TestReadOnlyCommitsWaitForWrite: a locking-path commit with no record
// and an MVCC snapshot commit, each reading the row a stalled writer
// committed, do not return before the writer's record is in the file —
// it is what they read.
func TestReadOnlyCommitsWaitForWrite(t *testing.T) {
	cfg := core.Bamboo()
	cfg.MVCC = true
	db, dir := walDB(t, cfg, wal.FsyncNone)
	tbl := testTable(db, 1)
	e := core.NewLockEngine(db)
	writer := e.NewSession(0, newCollector())
	stalled, release := stallNextWrite(t)

	wDone := make(chan error, 1)
	go func() {
		wDone <- writer.Run(func(tx core.Tx) error {
			return tx.Update(tbl.Get(0), func(img []byte) { tbl.Schema.SetInt64(img, 0, 5) })
		})
	}()
	await(t, stalled, "the writer's write")

	var locked, snapped atomic.Int64
	var snapshot atomic.Bool
	read := func(worker int, snap bool, into *atomic.Int64) <-chan error {
		done := make(chan error, 1)
		s := e.NewSession(worker, newCollector())
		go func() {
			done <- s.Run(func(tx core.Tx) error {
				if snap {
					snapshot.Store(core.MarkReadOnly(tx))
				}
				img, err := tx.Read(tbl.Get(0))
				if err == nil {
					into.Store(tbl.Schema.GetInt64(img, 0))
				}
				return err
			})
		}()
		return done
	}
	lDone, sDone := read(1, false, &locked), read(2, true, &snapped)
	stillWaiting(t, "a read-only commit", lDone, sDone)
	release()
	for _, ch := range []<-chan error{wDone, lDone, sDone} {
		if err := await(t, ch, "a commit"); err != nil {
			t.Fatal(err)
		}
	}
	if !snapshot.Load() {
		t.Fatal("the snapshot reader did not run on the snapshot path")
	}
	if locked.Load() != 5 || snapped.Load() != 5 {
		t.Fatalf("the readers read %d and %d, want the writer's 5", locked.Load(), snapped.Load())
	}
	if got := loggedValues(t, dir, 0, tbl.Schema); len(got) != 1 || got[0] != 5 {
		t.Fatalf("the log holds %v, want the writer's 5", got)
	}
}

// TestWriteFailureAfterRelease: a record whose write fails after the
// release fails its commit with the device error, which sticks. The next
// commit fails at sequencing and rolls back without a write; Close
// returns the error; the log holds only what was written before it. The
// failed commit's effect stays in memory, as after a crash.
func TestWriteFailureAfterRelease(t *testing.T) {
	db, dir := walDB(t, core.Bamboo(), wal.FsyncNone)
	tbl := testTable(db, 1)
	sess := core.NewLockEngine(db).NewSession(0, newCollector())
	incr := func(tx core.Tx) error {
		return tx.Update(tbl.Get(0), func(img []byte) { tbl.Schema.AddInt64(img, 0, 1) })
	}
	value := func() int64 { return tbl.Schema.GetInt64(tbl.Get(0).Entry.CurrentData(), 0) }
	if err := sess.Run(incr); err != nil {
		t.Fatal(err)
	}

	errDisk := errors.New("disk gone")
	var writes atomic.Int32
	orig := wal.WriteHook
	wal.WriteHook = func(*os.File, []byte) (int, error) {
		writes.Add(1)
		return 0, errDisk
	}
	defer func() { wal.WriteHook = orig }()
	if err := sess.Run(incr); !errors.Is(err, errDisk) {
		t.Fatalf("commit with a failed write: %v, want the device error", err)
	}
	if got := value(); got != 2 {
		t.Fatalf("value %d after the failed write, want 2: its effect stays in memory", got)
	}
	if err := sess.Run(incr); !errors.Is(err, errDisk) {
		t.Fatalf("commit after the failure: %v, want the device error", err)
	}
	if got := value(); got != 2 {
		t.Fatalf("value %d, want 2: a commit that failed to sequence rolls back", got)
	}
	if n := writes.Load(); n != 1 {
		t.Fatalf("%d writes tried, want 1: the failure sticks at sequencing", n)
	}
	if err := db.Close(); !errors.Is(err, errDisk) {
		t.Fatalf("close: %v, want the device error", err)
	}
	if got := loggedValues(t, dir, 0, tbl.Schema); len(got) != 1 || got[0] != 1 {
		t.Fatalf("the log holds %v, want only the first commit's 1", got)
	}
}

// TestCheckpointWaitsForWrite: a checkpoint whose sequence covers a
// record that is sequenced but unwritten writes (and syncs) the log
// through it before any snapshot for that sequence appears.
func TestCheckpointWaitsForWrite(t *testing.T) {
	cfg := core.Bamboo()
	cfg.Checkpoint.Dir = t.TempDir()
	db, dir := walDB(t, cfg, wal.FsyncBatch)
	tbl := testTable(db, 1)
	sess := core.NewLockEngine(db).NewSession(0, newCollector())
	stalled, release := stallNextWrite(t)

	wDone := make(chan error, 1)
	go func() {
		wDone <- sess.Run(func(tx core.Tx) error {
			return tx.Update(tbl.Get(0), func(img []byte) { tbl.Schema.SetInt64(img, 0, 9) })
		})
	}()
	await(t, stalled, "the writer's write")
	cDone := make(chan error, 1)
	go func() { cDone <- db.CheckpointNow() }()
	stillWaiting(t, "the checkpoint", cDone)
	if snaps, err := core.Snapshots(cfg.Checkpoint.Dir, 0); err != nil || len(snaps) != 0 {
		t.Fatalf("snapshots %v (%v) before the log was written through their sequence", snaps, err)
	}
	release()
	for _, ch := range []chan error{wDone, cDone} {
		if err := await(t, ch, "a commit or the checkpoint"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(core.SnapshotPath(cfg.Checkpoint.Dir, 0, 1)); err != nil {
		t.Fatalf("no snapshot at sequence 1: %v", err)
	}
	if got := loggedValues(t, dir, 0, tbl.Schema); len(got) != 1 || got[0] != 9 {
		t.Fatalf("the log holds %v, want the stalled commit's 9", got)
	}
}

// twoPartitionTable is a table of two rows on a two-partition DB: row k
// lives in partition k.
func twoPartitionTable(t *testing.T, db *core.DB) *storage.Table {
	t.Helper()
	schema := storage.NewSchema("t", storage.Column{Name: "v", Type: storage.ColInt64})
	tbl, err := db.Catalog.CreateTablePartitioned(schema, 2,
		storage.FuncPartitioner{N: 2, Fn: func(k uint64) int { return int(k) }})
	if err != nil {
		t.Fatal(err)
	}
	tbl.MustInsertRow(0, nil)
	tbl.MustInsertRow(1, nil)
	return tbl
}

// writeBoth sets rows 0 and 1 to v: one record in each partition's log.
func writeBoth(tbl *storage.Table, v int64) core.TxnFunc {
	return func(tx core.Tx) error {
		for k := uint64(0); k < 2; k++ {
			if err := tx.Update(tbl.Get(k), func(img []byte) { tbl.Schema.SetInt64(img, 0, v) }); err != nil {
				return err
			}
		}
		return nil
	}
}

// readOneWriteZero reads row 1 into seen and writes row 0 to 10 plus what
// it read: it depends on partition 1's log but writes only partition 0's.
func readOneWriteZero(tbl *storage.Table, seen *atomic.Int64) core.TxnFunc {
	return func(tx core.Tx) error {
		img, err := tx.Read(tbl.Get(1))
		if err != nil {
			return err
		}
		v := tbl.Schema.GetInt64(img, 0)
		seen.Store(v)
		return tx.Update(tbl.Get(0), func(img []byte) { tbl.Schema.SetInt64(img, 0, 10+v) })
	}
}

// TestCrossPartitionReadWaitsForWrite: a transaction that reads a row a
// stalled writer committed in partition 1, and writes only partition 0,
// does not return before the writer's partition-1 record is in the file.
// Its own log does not hold what it read, so its Wait must cover the
// log it does not write.
func TestCrossPartitionReadWaitsForWrite(t *testing.T) {
	cfg := core.Bamboo()
	cfg.Partitions = 2
	db, dir := walDB(t, cfg, wal.FsyncNone)
	tbl := twoPartitionTable(t, db)
	e := core.NewLockEngine(db)
	writer, reader := e.NewSession(0, newCollector()), e.NewSession(1, newCollector())
	stalled, release := stallNextWriteTo(t, 1)

	wDone := make(chan error, 1)
	go func() { wDone <- writer.Run(writeBoth(tbl, 1)) }()
	await(t, stalled, "the writer's partition-1 write")
	var seen atomic.Int64
	rDone := make(chan error, 1)
	go func() { rDone <- reader.Run(readOneWriteZero(tbl, &seen)) }()
	seqReaches(t, db, 2) // the reader sequenced its partition-0 record
	stillWaiting(t, "the cross-partition reader", rDone)
	release()
	for _, ch := range []chan error{wDone, rDone} {
		if err := await(t, ch, "a commit"); err != nil {
			t.Fatal(err)
		}
	}
	if seen.Load() != 1 {
		t.Fatalf("the reader read %d, want the writer's 1", seen.Load())
	}
	if got := loggedValues(t, dir, 0, tbl.Schema); len(got) != 2 || got[0] != 1 || got[1] != 11 {
		t.Fatalf("partition 0's log holds %v, want the writer's 1 then the reader's 11", got)
	}
	if got := loggedValues(t, dir, 1, tbl.Schema); len(got) != 1 || got[0] != 1 {
		t.Fatalf("partition 1's log holds %v, want the writer's 1", got)
	}
}

// TestCrossPartitionReadSeesWriteFailure: when a writer's partition-1
// write fails after its release, a transaction that read that write and
// writes only partition 0 fails with the device error too: it depends on
// a record the log lacks, so it must not be acknowledged.
func TestCrossPartitionReadSeesWriteFailure(t *testing.T) {
	cfg := core.Bamboo()
	cfg.Partitions = 2
	db, dir := walDB(t, cfg, wal.FsyncNone)
	tbl := twoPartitionTable(t, db)
	e := core.NewLockEngine(db)
	writer, reader := e.NewSession(0, newCollector()), e.NewSession(1, newCollector())

	errDisk := errors.New("disk gone")
	orig := wal.WriteHook
	wal.WriteHook = func(f *os.File, b []byte) (int, error) {
		if logPartition(f) == 1 {
			return 0, errDisk
		}
		return orig(f, b)
	}
	defer func() { wal.WriteHook = orig }()
	if err := writer.Run(writeBoth(tbl, 1)); !errors.Is(err, errDisk) {
		t.Fatalf("commit with a failed partition-1 write: %v, want the device error", err)
	}
	var seen atomic.Int64
	if err := reader.Run(readOneWriteZero(tbl, &seen)); !errors.Is(err, errDisk) {
		t.Fatalf("commit that read the failed write (%d): %v, want the device error", seen.Load(), err)
	}
	if err := db.Close(); !errors.Is(err, errDisk) {
		t.Fatalf("close: %v, want the device error", err)
	}
	if got := loggedValues(t, dir, 1, tbl.Schema); len(got) != 0 {
		t.Fatalf("partition 1's log holds %v, want nothing", got)
	}
}
