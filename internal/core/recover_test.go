package core_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"bamboo/internal/core"
	"bamboo/internal/storage"
	"bamboo/internal/wal"
)

const (
	xferRows    = 64
	xferInitial = 1000
)

func xferSchema() *storage.Schema {
	return storage.NewSchema("accounts",
		storage.Column{Name: "balance", Type: storage.ColInt64})
}

// loadXfer deterministically creates the hash-partitioned transfer table:
// the base snapshot both the "crashed" instance and the recovering one
// load, since loaders do not write the WAL.
func loadXfer(t *testing.T, db *core.DB) *storage.Table {
	t.Helper()
	schema := xferSchema()
	tbl, err := db.Catalog.CreateTablePartitioned(schema, xferRows,
		storage.HashPartitioner{N: db.Partitions()})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < xferRows; k++ {
		img := schema.NewRowImage()
		schema.SetInt64(img, 0, xferInitial)
		tbl.MustInsertRow(uint64(k), img)
	}
	return tbl
}

// partitionKeys groups the table's keys by owning partition.
func partitionKeys(tbl *storage.Table, parts int) [][]uint64 {
	per := make([][]uint64, parts)
	for k := 0; k < xferRows; k++ {
		pid := tbl.PartitionFor(uint64(k))
		per[pid] = append(per[pid], uint64(k))
	}
	return per
}

// xferGen generates partition-local transfers: both rows of a transfer
// live in one partition, so each transaction is atomic within a single
// partition log and every log prefix conserves that partition's total.
func xferGen(tbl *storage.Table, per [][]uint64) core.Generator {
	schema := tbl.Schema
	return func(worker, seq int) core.TxnFunc {
		rng := rand.New(rand.NewSource(int64(worker)*1e6 + int64(seq)))
		pid := rng.Intn(len(per))
		for len(per[pid]) < 2 {
			pid = (pid + 1) % len(per)
		}
		keys := per[pid]
		i := rng.Intn(len(keys))
		j := rng.Intn(len(keys) - 1)
		if j >= i {
			j++
		}
		amount := int64(rng.Intn(50) + 1)
		return func(tx core.Tx) error {
			tx.DeclareOps(2)
			if err := tx.Update(tbl.Get(keys[i]), func(img []byte) {
				schema.AddInt64(img, 0, -amount)
			}); err != nil {
				return err
			}
			return tx.Update(tbl.Get(keys[j]), func(img []byte) {
				schema.AddInt64(img, 0, amount)
			})
		}
	}
}

// partitionSums returns each partition's balance total and row count.
func partitionSums(tbl *storage.Table, parts int) ([]int64, []int) {
	schema := tbl.Schema
	sums := make([]int64, parts)
	counts := make([]int, parts)
	for p := 0; p < parts; p++ {
		tbl.Partition(p).Range(func(_ uint64, r *storage.Row) bool {
			sums[p] += schema.GetInt64(r.Entry.CurrentData(), 0)
			counts[p]++
			return true
		})
	}
	return sums, counts
}

// runXferToWAL runs the transfer workload on a WALDir-backed partitioned
// DB and returns the final row images (key → balance) for comparison.
func runXferToWAL(t *testing.T, dir string, parts, workers, perWorker int) map[uint64]int64 {
	t.Helper()
	cfg := core.Bamboo()
	cfg.Partitions = parts
	cfg.WALDir = dir
	cfg.WALFsync = wal.FsyncNone // durability policy is irrelevant to replay logic
	db := core.NewDB(cfg)
	tbl := loadXfer(t, db)
	per := partitionKeys(tbl, parts)
	res := core.RunN(core.NewLockEngine(db), workers, perWorker, xferGen(tbl, per))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	final := make(map[uint64]int64)
	tbl.Range(func(k uint64, r *storage.Row) bool {
		final[k] = tbl.Schema.GetInt64(r.Entry.CurrentData(), 0)
		return true
	})
	return final
}

// replayFresh loads the base snapshot into a fresh DB and replays dir.
func replayFresh(t *testing.T, dir string, parts int, parallel bool) (*core.DB, *storage.Table, core.ReplayStats) {
	t.Helper()
	cfg := core.Bamboo()
	cfg.Partitions = parts
	db := core.NewDB(cfg)
	t.Cleanup(func() { db.Close() })
	tbl := loadXfer(t, db)
	st, err := db.ReplayDir(dir, parallel)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return db, tbl, st
}

// TestReplayRebuildsState runs transfers against a file-backed
// partitioned WAL, then replays the logs into a fresh store — serially
// and in parallel — and requires both to reproduce the survivor's exact
// row images.
func TestReplayRebuildsState(t *testing.T) {
	const parts = 4
	dir := filepath.Join(t.TempDir(), "wal")
	final := runXferToWAL(t, dir, parts, 4, 40)

	for _, parallel := range []bool{false, true} {
		name := "serial"
		if parallel {
			name = "parallel"
		}
		t.Run(name, func(t *testing.T) {
			_, tbl, st := replayFresh(t, dir, parts, parallel)
			if st.Records == 0 || st.Writes == 0 || st.Logs != parts {
				t.Fatalf("replay stats %+v", st)
			}
			if st.Torn != 0 {
				t.Fatalf("cleanly closed logs reported %d torn tails", st.Torn)
			}
			seen := 0
			tbl.Range(func(k uint64, r *storage.Row) bool {
				seen++
				if got := tbl.Schema.GetInt64(r.Entry.CurrentData(), 0); got != final[k] {
					t.Errorf("row %d: replayed balance %d, survivor %d", k, got, final[k])
				}
				return true
			})
			if seen != xferRows {
				t.Fatalf("replayed table has %d rows, want %d", seen, xferRows)
			}
			if err := core.RecoveredTable(tbl); err != nil {
				t.Fatal(err)
			}
			sums, _ := partitionSums(tbl, parts)
			var total int64
			for _, s := range sums {
				total += s
			}
			if want := int64(xferRows * xferInitial); total != want {
				t.Fatalf("total = %d, want %d", total, want)
			}
		})
	}
}

// TestWALDirWritesSegments pins the one log layout: a WALDir DB without
// checkpoints writes per-partition segment chains, rotated at
// Checkpoint.SegmentBytes, and ReplayDir restores every committed record
// from them.
func TestWALDirWritesSegments(t *testing.T) {
	const parts = 2
	dir := filepath.Join(t.TempDir(), "wal")
	cfg := core.Bamboo()
	cfg.Partitions = parts
	cfg.WALDir = dir
	cfg.Checkpoint.SegmentBytes = 4 << 10
	db := core.NewDB(cfg)
	tbl := loadXfer(t, db)
	res := core.RunN(core.NewLockEngine(db), 2, 200, xferGen(tbl, partitionKeys(tbl, parts)))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if filepath.Ext(e.Name()) != ".seg" {
			t.Errorf("WAL directory holds %s, want segment files only", e.Name())
		}
	}
	rotated := false
	for p := 0; p < parts; p++ {
		segs, err := wal.ListSegments(dir, p)
		if err != nil {
			t.Fatal(err)
		}
		rotated = rotated || len(segs) > 1
	}
	if !rotated {
		t.Fatal("no partition log rotated past its 4 KiB segment")
	}

	// Every transfer is partition-local: one record per commit.
	_, rtbl, st := replayFresh(t, dir, parts, true)
	if uint64(st.Records) != res.Report.Commits {
		t.Fatalf("replayed %d records, want %d commits", st.Records, res.Report.Commits)
	}
	tbl.Range(func(k uint64, r *storage.Row) bool {
		want := tbl.Schema.GetInt64(r.Entry.CurrentData(), 0)
		if got := rtbl.Schema.GetInt64(rtbl.Get(k).Entry.CurrentData(), 0); got != want {
			t.Errorf("row %d: replayed balance %d, survivor %d", k, got, want)
		}
		return true
	})
}

// TestPartitionedCommitRouting pins the split: every record in partition
// p's log contains only writes whose keys route to p, and a transaction
// spanning partitions appears in each touched log under the same TxnID.
func TestPartitionedCommitRouting(t *testing.T) {
	const parts = 4
	dir := filepath.Join(t.TempDir(), "wal")
	cfg := core.Bamboo()
	cfg.Partitions = parts
	cfg.WALDir = dir
	db := core.NewDB(cfg)
	tbl := loadXfer(t, db)
	per := partitionKeys(tbl, parts)
	// Cross-partition transfers: one row from partition 0's key list, one
	// from partition 1's.
	gen := func(worker, seq int) core.TxnFunc {
		a, b := per[0][seq%len(per[0])], per[1][seq%len(per[1])]
		return func(tx core.Tx) error {
			tx.DeclareOps(2)
			if err := tx.Update(tbl.Get(a), func(img []byte) { tbl.Schema.AddInt64(img, 0, -1) }); err != nil {
				return err
			}
			return tx.Update(tbl.Get(b), func(img []byte) { tbl.Schema.AddInt64(img, 0, 1) })
		}
	}
	res := core.RunN(core.NewLockEngine(db), 2, 10, gen)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	txnLogs := map[uint64]int{} // TxnID → number of logs it appears in
	for p := 0; p < parts; p++ {
		_, err := wal.ReplayPartition(dir, p, 0, func(rec *wal.Record) error {
			txnLogs[rec.TxnID]++
			for _, w := range rec.Writes {
				if got := tbl.PartitionFor(w.Key); got != p {
					t.Errorf("log %d holds write for key %d (partition %d)", p, w.Key, got)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("log %d: %v", p, err)
		}
	}
	if len(txnLogs) != 20 {
		t.Fatalf("%d distinct transactions logged, want 20", len(txnLogs))
	}
	for id, n := range txnLogs {
		if n != 2 {
			t.Errorf("txn %d appears in %d logs, want 2 (one per touched partition)", id, n)
		}
	}
	// Logs for partitions 2 and 3 must be empty: nothing wrote there.
	for p := 2; p < parts; p++ {
		st, err := wal.ReplayPartition(dir, p, 0, func(*wal.Record) error { return nil })
		if err != nil || st.Records != 0 {
			t.Errorf("untouched partition %d log: %d records, err %v", p, st.Records, err)
		}
	}
}

// TestReplayCutAtEveryOffset is the crash-replay property test: partition
// 0's newest log segment is truncated at every byte offset (every possible
// crash point) and replayed; every prefix must yield a prefix-consistent
// store — partition sums conserved (transfers are partition-local and each
// record is applied atomically or not at all), row counts intact, and the
// torn tail tolerated without error.
func TestReplayCutAtEveryOffset(t *testing.T) {
	const parts = 2
	srcDir := filepath.Join(t.TempDir(), "wal")
	runXferToWAL(t, srcDir, parts, 2, 25)

	segs, err := wal.ListSegments(srcDir, 0)
	if err != nil || len(segs) == 0 {
		t.Fatalf("partition 0 segments: %v, %v", segs, err)
	}
	newest := filepath.Base(segs[len(segs)-1].Path)
	log0, err := os.ReadFile(segs[len(segs)-1].Path)
	if err != nil {
		t.Fatal(err)
	}
	if len(log0) == 0 {
		t.Fatal("partition 0 log is empty; workload did not touch it")
	}
	// The replay dir shares every other segment; only partition 0's
	// newest is rewritten per cut.
	cutDir := filepath.Join(t.TempDir(), "cut")
	if err := os.MkdirAll(cutDir, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	var otherBytes int64
	for _, e := range ents {
		if e.Name() == newest {
			continue
		}
		b, err := os.ReadFile(filepath.Join(srcDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		otherBytes += int64(len(b))
		if err := os.WriteFile(filepath.Join(cutDir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	step := 1
	if testing.Short() {
		// Every offset is ~len(log0) replays; sample under -short but
		// always include the interesting region around each boundary.
		step = 7
	}
	wantTotal := int64(xferRows * xferInitial)
	for cut := 0; cut <= len(log0); cut += step {
		if err := os.WriteFile(filepath.Join(cutDir, newest), log0[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, tbl, st := replayFresh(t, cutDir, parts, cut%2 == 0) // alternate serial/parallel
		sums, counts := partitionSums(tbl, parts)
		var total int64
		for p := 0; p < parts; p++ {
			total += sums[p]
			if counts[p] == 0 {
				t.Fatalf("cut %d: partition %d lost its rows", cut, p)
			}
		}
		if total != wantTotal {
			t.Fatalf("cut %d: total balance %d, want %d (prefix not conserved; stats %+v)",
				cut, total, wantTotal, st)
		}
		// Bytes aggregates all logs; log 0 can contribute at most the cut.
		if max := int64(cut) + otherBytes; st.Bytes > max {
			t.Fatalf("cut %d: replay claims %d complete bytes, max %d", cut, st.Bytes, max)
		}
	}
}

// TestReplayInserts covers transactional inserts through the partitioned
// log: buffered inserts are logged in their owning partition's record and
// replay re-creates the rows.
func TestReplayInserts(t *testing.T) {
	const parts = 2
	dir := filepath.Join(t.TempDir(), "wal")
	cfg := core.Bamboo()
	cfg.Partitions = parts
	cfg.WALDir = dir
	db := core.NewDB(cfg)
	tbl := loadXfer(t, db)
	const inserts = 10
	gen := func(worker, seq int) core.TxnFunc {
		key := uint64(xferRows + worker*inserts + seq)
		return func(tx core.Tx) error {
			img := tbl.Schema.NewRowImage()
			tbl.Schema.SetInt64(img, 0, int64(key))
			return tx.Insert(tbl, key, img)
		}
	}
	if res := core.RunN(core.NewLockEngine(db), 2, inserts, gen); res.Err != nil {
		t.Fatal(res.Err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	_, tbl2, st := replayFresh(t, dir, parts, true)
	if st.Records != 2*inserts {
		t.Fatalf("replayed %d records, want %d", st.Records, 2*inserts)
	}
	if got := tbl2.Rows(); got != xferRows+2*inserts {
		t.Fatalf("replayed table has %d rows, want %d", got, xferRows+2*inserts)
	}
	for w := 0; w < 2; w++ {
		for s := 0; s < inserts; s++ {
			key := uint64(xferRows + w*inserts + s)
			r := tbl2.Get(key)
			if r == nil {
				t.Fatalf("inserted row %d not replayed", key)
			}
			if got := tbl2.Schema.GetInt64(r.Entry.CurrentData(), 0); got != int64(key) {
				t.Fatalf("row %d image = %d", key, got)
			}
		}
	}
	if err := core.RecoveredTable(tbl2); err != nil {
		t.Fatal(err)
	}
}

// TestWALDirSinglePartition exercises the degenerate case: one partition,
// one file log — the shared-Log API over a FileDevice, replayable.
func TestWALDirSinglePartition(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	final := runXferToWAL(t, dir, 1, 2, 20)
	_, tbl, st := replayFresh(t, dir, 1, false)
	if st.Logs != 1 || st.Records == 0 {
		t.Fatalf("stats %+v", st)
	}
	tbl.Range(func(k uint64, r *storage.Row) bool {
		if got := tbl.Schema.GetInt64(r.Entry.CurrentData(), 0); got != final[k] {
			t.Errorf("row %d: %d != %d", k, got, final[k])
		}
		return true
	})
}

// TestPartitionedWALBatchSync drives the per-device syncers over
// partitioned file logs: concurrent committers on every partition, one
// syncer per log, and the shared fsyncs visible in the stats.
func TestPartitionedWALBatchSync(t *testing.T) {
	const parts = 2
	dir := filepath.Join(t.TempDir(), "wal")
	cfg := core.Bamboo()
	cfg.Partitions = parts
	cfg.WALDir = dir
	cfg.WALFsync = wal.FsyncBatch
	db := core.NewDB(cfg)
	tbl := loadXfer(t, db)
	per := partitionKeys(tbl, parts)
	res := core.RunN(core.NewLockEngine(db), 4, 25, xferGen(tbl, per))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// Stats before Close: commits block until durable, so all appends are
	// visible, while Close would add its per-device shutdown fsync (on a
	// few-core host a sync can cover a single record, making post-Close
	// syncs exceed appends and the bound meaningless).
	st := db.WALStats()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Appends != 100 {
		t.Fatalf("appended %d records, want 100", st.Appends)
	}
	if st.Syncs == 0 || st.Syncs > st.Appends {
		t.Fatalf("syncs = %d for %d appends", st.Syncs, st.Appends)
	}
	_, tbl2, _ := replayFresh(t, dir, parts, true)
	sums, _ := partitionSums(tbl2, parts)
	var total int64
	for _, s := range sums {
		total += s
	}
	if want := int64(xferRows * xferInitial); total != want {
		t.Fatalf("total %d, want %d", total, want)
	}
}

func ExampleDB_ReplayDir() {
	dir, _ := os.MkdirTemp("", "wal")
	defer os.RemoveAll(dir)
	cfg := core.Bamboo()
	cfg.Partitions = 2
	cfg.WALDir = dir
	cfg.WALFsync = wal.FsyncBatch
	db := core.NewDB(cfg)
	schema := storage.NewSchema("kv", storage.Column{Name: "v", Type: storage.ColInt64})
	tbl, _ := db.Catalog.CreateTablePartitioned(schema, 4, storage.HashPartitioner{N: 2})
	for k := uint64(0); k < 4; k++ {
		tbl.MustInsertRow(k, schema.NewRowImage())
	}
	eng := core.NewLockEngine(db)
	res := core.RunN(eng, 1, 1, func(int, int) core.TxnFunc {
		return func(tx core.Tx) error {
			return tx.Update(tbl.Get(2), func(img []byte) { schema.SetInt64(img, 0, 42) })
		}
	})
	if res.Err != nil {
		fmt.Println(res.Err)
	}
	db.Close()

	// After a crash: reload the base snapshot, then replay the logs.
	db2 := core.NewDB(core.Config{Partitions: 2})
	defer db2.Close()
	tbl2, _ := db2.Catalog.CreateTablePartitioned(schema, 4, storage.HashPartitioner{N: 2})
	for k := uint64(0); k < 4; k++ {
		tbl2.MustInsertRow(k, schema.NewRowImage())
	}
	st, _ := db2.ReplayDir(dir, true)
	fmt.Println(st.Records, schema.GetInt64(tbl2.Get(2).Entry.CurrentData(), 0))
	// Output: 1 42
}
