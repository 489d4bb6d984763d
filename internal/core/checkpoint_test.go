package core_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bamboo/internal/core"
	"bamboo/internal/storage"
	"bamboo/internal/wal"
)

// lifecycleCfg is the storage-lifecycle test configuration: segmented WAL
// with small segments so rotation and truncation trigger quickly, and an
// hour-long interval so checkpoints happen only when the test asks.
func lifecycleCfg(walDir, ckptDir string, parts int, truncate bool) core.Config {
	cfg := core.Bamboo()
	cfg.Partitions = parts
	cfg.WALDir = walDir
	cfg.WALFsync = wal.FsyncNone
	cfg.Checkpoint = core.CheckpointConfig{
		Dir:          ckptDir,
		Interval:     time.Hour,
		SegmentBytes: 4 << 10,
		Truncate:     truncate,
	}
	return cfg
}

// runXferLifecycle runs `rounds` batches of transfers with a forced
// checkpoint after each, then closes the DB and returns the survivor's
// final images.
func runXferLifecycle(t *testing.T, cfg core.Config, rounds, perRound int) map[uint64]int64 {
	t.Helper()
	db := core.NewDB(cfg)
	tbl := loadXfer(t, db)
	per := partitionKeys(tbl, cfg.Partitions)
	db.StartCheckpointer()
	for r := 0; r < rounds; r++ {
		if res := core.RunN(core.NewLockEngine(db), 2, perRound, xferGen(tbl, per)); res.Err != nil {
			t.Fatal(res.Err)
		}
		if err := db.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
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

// recoverLifecycle loads the base snapshot into a fresh checkpoint-aware
// DB and replays.
func recoverLifecycle(t *testing.T, cfg core.Config) (*storage.Table, core.ReplayStats) {
	t.Helper()
	db := core.NewDB(cfg)
	t.Cleanup(func() { db.Close() })
	tbl := loadXfer(t, db)
	st, err := db.ReplayDir(cfg.WALDir, true)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return tbl, st
}

func requireImages(t *testing.T, tbl *storage.Table, want map[uint64]int64) {
	t.Helper()
	seen := 0
	tbl.Range(func(k uint64, r *storage.Row) bool {
		seen++
		if got := tbl.Schema.GetInt64(r.Entry.CurrentData(), 0); got != want[k] {
			t.Errorf("row %d: recovered %d, survivor %d", k, got, want[k])
		}
		return true
	})
	if seen != len(want) {
		t.Fatalf("recovered %d rows, want %d", seen, len(want))
	}
	if err := core.RecoveredTable(tbl); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRecoverySuffixOnly is the headline property: recovery
// restores the newest snapshot and replays only the log suffix past its
// LSN — fewer records and fewer bytes than a full replay of the same
// logs, same final state.
func TestCheckpointRecoverySuffixOnly(t *testing.T) {
	const parts = 2
	walDir := filepath.Join(t.TempDir(), "wal")
	ckptDir := filepath.Join(t.TempDir(), "ckpt")
	cfg := lifecycleCfg(walDir, ckptDir, parts, false)
	final := runXferLifecycle(t, cfg, 3, 30)

	tbl, st := recoverLifecycle(t, cfg)
	requireImages(t, tbl, final)
	if st.Checkpoints != parts {
		t.Fatalf("restored %d checkpoints, want %d (stats %+v)", st.Checkpoints, parts, st)
	}
	if st.CheckpointsBad != 0 || st.CheckpointRows == 0 {
		t.Fatalf("stats %+v", st)
	}

	// Full replay of the same segmented logs (no checkpoint config) is
	// the baseline the suffix must beat.
	fullCfg := core.Bamboo()
	fullCfg.Partitions = parts
	fdb := core.NewDB(fullCfg)
	defer fdb.Close()
	loadXfer(t, fdb)
	full, err := fdb.ReplayDir(walDir, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records >= full.Records {
		t.Fatalf("suffix replay applied %d records, full replay %d", st.Records, full.Records)
	}
	if st.Bytes >= full.Bytes {
		t.Fatalf("suffix replay read %d applied bytes, full replay %d", st.Bytes, full.Bytes)
	}
	if st.Skipped == 0 && st.SkippedSegments == 0 {
		t.Fatalf("suffix replay skipped nothing: %+v", st)
	}
}

// TestCheckpointCorruptNewestFallsBack flips one byte in partition 0's
// newest snapshot: recovery must reject it (CheckpointsBad), restore the
// previous snapshot, and still reproduce the survivor exactly — the
// truncation policy is required to have kept that older snapshot's full
// log suffix.
func TestCheckpointCorruptNewestFallsBack(t *testing.T) {
	const parts = 2
	walDir := filepath.Join(t.TempDir(), "wal")
	ckptDir := filepath.Join(t.TempDir(), "ckpt")
	cfg := lifecycleCfg(walDir, ckptDir, parts, true)
	final := runXferLifecycle(t, cfg, 4, 30)

	snaps, err := core.Snapshots(ckptDir, 0)
	if err != nil || len(snaps) < 2 {
		t.Fatalf("want ≥2 retained snapshots for partition 0, have %v (%v)", snaps, err)
	}
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(snaps[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	tbl, st := recoverLifecycle(t, cfg)
	requireImages(t, tbl, final)
	if st.CheckpointsBad != 1 {
		t.Fatalf("CheckpointsBad = %d, want 1 (stats %+v)", st.CheckpointsBad, st)
	}
	if st.Checkpoints != parts {
		t.Fatalf("restored %d checkpoints, want %d despite the corrupt newest", st.Checkpoints, parts)
	}
}

// TestCheckpointMisnamedSnapshotRejected copies partition 1's newest
// snapshot under a partition-0 name with a higher seq. Recovery tries it
// first for partition 0 and must reject it before applying a row: its
// rows belong to partition 1, whose own goroutine replays them at the
// same time under a parallel ReplayDir.
func TestCheckpointMisnamedSnapshotRejected(t *testing.T) {
	const parts = 2
	walDir := filepath.Join(t.TempDir(), "wal")
	ckptDir := filepath.Join(t.TempDir(), "ckpt")
	cfg := lifecycleCfg(walDir, ckptDir, parts, false)
	final := runXferLifecycle(t, cfg, 2, 30)

	snaps, err := core.Snapshots(ckptDir, 1)
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshot of partition 1: %v", err)
	}
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(core.SnapshotPath(ckptDir, 0, 1<<40), data, 0o644); err != nil {
		t.Fatal(err)
	}

	tbl, st := recoverLifecycle(t, cfg)
	requireImages(t, tbl, final)
	if st.CheckpointsBad != 1 || st.Checkpoints != parts {
		t.Fatalf("stats %+v, want the misnamed snapshot rejected and %d restored", st, parts)
	}
}

// TestCheckpointPrunesStaleTemp plants the temp file a kill in the middle
// of a snapshot write leaves behind; the next round's pruning removes it.
func TestCheckpointPrunesStaleTemp(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	ckptDir := filepath.Join(t.TempDir(), "ckpt")
	cfg := lifecycleCfg(walDir, ckptDir, 1, false)
	db := core.NewDB(cfg)
	defer db.Close()
	tbl := loadXfer(t, db)
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := core.SnapshotPath(ckptDir, 0, 3) + wal.TempSuffix
	if err := os.WriteFile(stale, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if res := core.RunN(core.NewLockEngine(db), 1, 5, xferGen(tbl, partitionKeys(tbl, 1))); res.Err != nil {
		t.Fatal(res.Err)
	}
	if err := db.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale temp file survived a checkpoint round: %v", err)
	}
	if snaps, err := core.Snapshots(ckptDir, 0); err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots after the round: %v (%v)", snaps, err)
	}
}

// TestCheckpointTruncationBoundsLog drives enough rounds that the
// truncation policy must unlink whole segments, then checks the three
// consequences: the oldest on-disk segment no longer starts at seq 1,
// checkpoint-aware recovery still reproduces the survivor, and a replay
// WITHOUT the checkpoint (which would need the truncated prefix) fails
// loudly with ErrCorrupt instead of silently resurrecting stale state.
func TestCheckpointTruncationBoundsLog(t *testing.T) {
	const parts = 2
	walDir := filepath.Join(t.TempDir(), "wal")
	ckptDir := filepath.Join(t.TempDir(), "ckpt")
	cfg := lifecycleCfg(walDir, ckptDir, parts, true)

	db := core.NewDB(cfg)
	tbl := loadXfer(t, db)
	per := partitionKeys(tbl, parts)
	db.StartCheckpointer()
	for r := 0; r < 8; r++ {
		if res := core.RunN(core.NewLockEngine(db), 2, 40, xferGen(tbl, per)); res.Err != nil {
			t.Fatal(res.Err)
		}
		if err := db.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
	}
	cst := db.CheckpointStats()
	live := db.LogLiveBytes()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	final := make(map[uint64]int64)
	tbl.Range(func(k uint64, r *storage.Row) bool {
		final[k] = tbl.Schema.GetInt64(r.Entry.CurrentData(), 0)
		return true
	})

	if cst.Truncations == 0 || cst.TruncatedBytes == 0 {
		t.Fatalf("no truncation after 8 checkpointed rounds: %+v", cst)
	}
	var onDisk int64
	truncated := false
	for p := 0; p < parts; p++ {
		segs, err := wal.ListSegments(walDir, p)
		if err != nil || len(segs) == 0 {
			t.Fatalf("partition %d segments: %v %v", p, segs, err)
		}
		if segs[0].FirstSeq > 1 {
			truncated = true
		}
		for _, s := range segs {
			onDisk += s.Bytes
		}
	}
	if !truncated {
		t.Fatalf("%d truncations reported but every partition still holds seq 1", cst.Truncations)
	}
	if onDisk != live {
		t.Fatalf("LiveBytes %d disagrees with on-disk segment bytes %d", live, onDisk)
	}

	tbl2, st := recoverLifecycle(t, cfg)
	requireImages(t, tbl2, final)
	if st.Checkpoints != parts {
		t.Fatalf("stats %+v", st)
	}

	fullCfg := core.Bamboo()
	fullCfg.Partitions = parts
	fdb := core.NewDB(fullCfg)
	defer fdb.Close()
	loadXfer(t, fdb)
	if _, err := fdb.ReplayDir(walDir, false); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("full replay of truncated logs: err = %v, want ErrCorrupt", err)
	}
}

// TestCheckpointConcurrentWithWriters runs the background checkpointer at
// a tight interval underneath a live transfer workload: fuzzy snapshots
// are taken while commits are in flight, and whichever snapshot recovery
// lands on, replaying the suffix must conserve every partition's total —
// the end-to-end form of the committed-images-only contract.
func TestCheckpointConcurrentWithWriters(t *testing.T) {
	const parts = 2
	walDir := filepath.Join(t.TempDir(), "wal")
	ckptDir := filepath.Join(t.TempDir(), "ckpt")
	cfg := lifecycleCfg(walDir, ckptDir, parts, true)
	cfg.Checkpoint.Interval = 5 * time.Millisecond

	db := core.NewDB(cfg)
	tbl := loadXfer(t, db)
	per := partitionKeys(tbl, parts)
	db.StartCheckpointer()
	perWorker := 400
	if testing.Short() {
		perWorker = 100
	}
	if res := core.RunN(core.NewLockEngine(db), 4, perWorker, xferGen(tbl, per)); res.Err != nil {
		t.Fatal(res.Err)
	}
	// On a 1-CPU -race run the short workload can finish before the
	// ticker goroutine is ever scheduled; the checkpointer keeps running
	// until Close, so give it a bounded window to take its round.
	cst := db.CheckpointStats()
	for wait := 0; cst.Checkpoints == 0 && wait < 400; wait++ {
		time.Sleep(5 * time.Millisecond)
		cst = db.CheckpointStats()
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if cst.Checkpoints == 0 {
		t.Fatalf("background checkpointer never ran: %+v", cst)
	}
	if cst.Errors != 0 {
		t.Fatalf("background rounds failed: %+v", cst)
	}

	tbl2, st := recoverLifecycle(t, cfg)
	sums, counts := partitionSums(tbl2, parts)
	var total int64
	for p := 0; p < parts; p++ {
		total += sums[p]
		if counts[p] == 0 {
			t.Fatalf("partition %d lost its rows", p)
		}
	}
	if want := int64(xferRows * xferInitial); total != want {
		t.Fatalf("total %d, want %d (stats %+v)", total, want, st)
	}
}

// TestCheckpointRoundEveryTick: the background checkpointer takes a round
// at every tick of its interval — a snapshot while writers commit, a
// counted skip when nothing new is durable — even when the previous round
// ended a few µs short of one interval before the tick.
func TestCheckpointRoundEveryTick(t *testing.T) {
	const interval, length = 20 * time.Millisecond, time.Second
	cfg := lifecycleCfg(filepath.Join(t.TempDir(), "wal"), filepath.Join(t.TempDir(), "ckpt"), 1, false)
	cfg.Checkpoint.Interval = interval

	db := core.NewDB(cfg)
	tbl := loadXfer(t, db)
	per := partitionKeys(tbl, 1)
	db.StartCheckpointer()
	start := time.Now()
	if res := core.RunFor(core.NewLockEngine(db), 2, length, xferGen(tbl, per)); res.Err != nil {
		t.Fatal(res.Err)
	}
	cst := db.CheckpointStats()
	ticks := uint64(time.Since(start) / interval)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	rounds := cst.Checkpoints + cst.SkippedRounds
	t.Logf("%d rounds (%d snapshots, %d skips) in %d ticks", rounds, cst.Checkpoints, cst.SkippedRounds, ticks)
	if rounds < ticks*4/5 {
		t.Fatalf("%d rounds in %d ticks, want at least %d", rounds, ticks, ticks*4/5)
	}
	if cst.Errors != 0 {
		t.Fatalf("background rounds failed: %+v", cst)
	}
}

// TestCheckpointRequiresWALDir pins the guard: a checkpoint config with
// no file-backed WAL is a programming error, not a silent no-op.
func TestCheckpointRequiresWALDir(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDB accepted Checkpoint without WALDir")
		}
	}()
	cfg := core.Bamboo()
	cfg.Checkpoint.Dir = t.TempDir()
	core.NewDB(cfg)
}

// TestCheckpointNowDisabled pins the API error for a non-checkpoint DB.
func TestCheckpointNowDisabled(t *testing.T) {
	db := core.NewDB(core.Bamboo())
	defer db.Close()
	if err := db.CheckpointNow(); err == nil {
		t.Fatal("CheckpointNow on a checkpoint-less DB must error")
	}
	if st := db.CheckpointStats(); st != (core.CheckpointStats{}) {
		t.Fatalf("stats %+v", st)
	}
	db.StartCheckpointer() // must be a harmless no-op
}
