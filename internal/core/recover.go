package core

import (
	"errors"
	"fmt"
	"io/fs"
	"sync"

	"bamboo/internal/storage"
	"bamboo/internal/wal"
)

// ReplayStats summarizes a WAL replay.
type ReplayStats struct {
	// Logs is the number of partition logs (segment chains) replayed; a
	// partition with no segment in the directory is skipped, not an
	// error.
	Logs int
	// Records is the number of commit records applied. A transaction
	// whose writes spanned k partitions appears as k records (one per
	// partition log, same TxnID).
	Records int
	// Writes is the number of row after-images applied.
	Writes int
	// Torn counts logs that ended in an incomplete record — the normal
	// shape after a crash mid-append; the partial tail is discarded and
	// the log replays to its last complete record.
	Torn int
	// Bytes is the total log bytes of records actually applied — with a
	// checkpoint, the post-checkpoint suffix only. This is the number a
	// bounded-recovery claim is about.
	Bytes int64
	// Skipped counts records (and SkippedSegments whole segment files)
	// that a checkpoint made redundant; skipped records read from disk
	// are still CRC-verified.
	Skipped         int
	SkippedSegments int
	// Checkpoints is the number of snapshot files restored (≤ 1 per
	// partition); CheckpointRows the rows they installed. CheckpointsBad
	// counts corrupt snapshots that were rejected and fallen back from.
	Checkpoints    int
	CheckpointRows int
	CheckpointsBad int
}

// ReplayDir rebuilds row state from the per-partition WAL files a
// Config.WALDir-backed DB wrote: every logged after-image is re-applied
// (updates in place, transactional inserts re-inserted) through
// storage.Partition.ApplyRecord. The receiver must hold the same catalog
// the crashed instance had — schemas created and the base snapshot loaded
// by the same deterministic loader — since loaders do not write the WAL;
// the log holds only transactional writes.
//
// With parallel set, partition logs replay concurrently, one goroutine
// per log. This is race-free because every engine logs through a
// CommitLog, which splits each commit by owning partition: log p only
// ever touches partition p's rows.
//
// A torn record at a log's tail is tolerated and counted; corruption
// anywhere else fails the replay.
func (db *DB) ReplayDir(dir string, parallel bool) (ReplayStats, error) {
	return db.ReplayDirCheckpointed(dir, db.cfg.Checkpoint.Dir, parallel)
}

// ReplayDirCheckpointed is ReplayDir with an explicit snapshot directory,
// for recovery tooling that inspects a crashed instance's state without
// configuring (and thus opening) its WAL devices. Empty ckptDir means a
// full replay from the first retained record.
func (db *DB) ReplayDirCheckpointed(dir, ckptDir string, parallel bool) (ReplayStats, error) {
	n := db.Partitions()
	stats := make([]ReplayStats, n)
	errs := make([]error, n)
	replayOne := func(p int) {
		stats[p], errs[p] = db.replayLog(dir, ckptDir, p)
	}
	if parallel {
		var wg sync.WaitGroup
		for p := 0; p < n; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				replayOne(p)
			}(p)
		}
		wg.Wait()
	} else {
		for p := 0; p < n; p++ {
			replayOne(p)
		}
	}
	var total ReplayStats
	for p := 0; p < n; p++ {
		if errs[p] != nil {
			return total, fmt.Errorf("core: replay partition %d: %w", p, errs[p])
		}
		total.Logs += stats[p].Logs
		total.Records += stats[p].Records
		total.Writes += stats[p].Writes
		total.Torn += stats[p].Torn
		total.Bytes += stats[p].Bytes
		total.Skipped += stats[p].Skipped
		total.SkippedSegments += stats[p].SkippedSegments
		total.Checkpoints += stats[p].Checkpoints
		total.CheckpointRows += stats[p].CheckpointRows
		total.CheckpointsBad += stats[p].CheckpointsBad
	}
	if db.Snap != nil {
		db.reseedVersions()
	}
	return total, nil
}

// reseedVersions resets every row's version chain to its recovered
// committed image at ts 0. Versions are volatile — the log and
// checkpoints carry only the newest committed image — so recovery
// rebuilds a single-version chain per row and snapshot history restarts
// fresh. Replay applies images through Entry.Init, which bypasses the
// chains; without this pass a post-recovery snapshot would read the
// loader's stale seed. Runs single-threaded after replay completes.
func (db *DB) reseedVersions() {
	for _, tbl := range db.Catalog.AllTables() {
		tbl.Range(func(_ uint64, r *storage.Row) bool {
			r.Versions.Seed(0, r.Entry.CurrentData())
			return true
		})
	}
}

func (db *DB) replayLog(dir, ckptDir string, p int) (ReplayStats, error) {
	var st ReplayStats
	// Checkpoint-aware start: restore the newest valid snapshot and
	// replay only the log suffix past its LSN. A corrupt snapshot falls
	// back to the next-older one (loadSnapshot verifies the whole file
	// before applying anything, so a rejected snapshot installs
	// nothing); no usable snapshot at all falls back to a full replay —
	// which the log can satisfy unless truncation already ran, in which
	// case ReplayPartition fails loudly rather than resurrect a state
	// missing committed records.
	fromSeq := uint64(0)
	if ckptDir != "" {
		snaps, _, err := listSnapshots(ckptDir, p)
		if err != nil {
			return st, err
		}
		for _, sn := range snaps {
			rows, err := loadSnapshot(db.Catalog, sn, p)
			if errors.Is(err, wal.ErrCorrupt) {
				st.CheckpointsBad++
				continue
			}
			if err != nil {
				return st, err
			}
			st.Checkpoints++
			st.CheckpointRows += rows
			fromSeq = sn.seq
			break
		}
	}
	rst, err := wal.ReplayPartition(dir, p, fromSeq, func(rec *wal.Record) error {
		st.Records++
		st.Writes += len(rec.Writes)
		return applyWrites(db.Catalog, rec.Writes)
	})
	if errors.Is(err, fs.ErrNotExist) {
		// A partition that never logged; with a checkpoint restored the
		// snapshot alone is its recovered state.
		return st, nil
	}
	st.Logs = 1
	st.Bytes = rst.Bytes
	st.Skipped = rst.Skipped
	st.SkippedSegments = rst.SkippedSegments
	if rst.Torn {
		st.Torn++
	}
	return st, err
}

// applyWrites installs logged after-images — a commit record's or a
// snapshot chunk's — each into the partition its key routes to, through
// storage.Partition.ApplyRecord's idempotent insert-or-replace.
func applyWrites(c *storage.Catalog, ws []wal.Write) error {
	var tbl *storage.Table
	for _, w := range ws {
		if tbl = tableOf(c, tbl, w.Table); tbl == nil {
			return fmt.Errorf("unknown table %q", w.Table)
		}
		if _, err := tbl.Partition(tbl.PartitionFor(w.Key)).ApplyRecord(tbl, w.Key, w.Image); err != nil {
			return err
		}
	}
	return nil
}

// tableOf returns the table called name, reusing last when it is that
// table: consecutive writes mostly share one, and every partition
// replaying in parallel would otherwise take the catalog's lock per row.
func tableOf(c *storage.Catalog, last *storage.Table, name string) *storage.Table {
	if last != nil && last.Schema.Name == name {
		return last
	}
	return c.Table(name)
}

// RecoveredTable is a convenience assertion for recovery tests and
// tooling: it checks that every partition's row count matches the
// partitioner's routing (each row indexed exactly where its key routes).
func RecoveredTable(tbl *storage.Table) error {
	for p := 0; p < tbl.NumPartitions(); p++ {
		var bad error
		tbl.Partition(p).Range(func(key uint64, r *storage.Row) bool {
			if want := tbl.PartitionFor(key); want != p {
				bad = fmt.Errorf("row %d indexed in partition %d, routes to %d", key, p, want)
				return false
			}
			if r.PartitionID != p {
				bad = fmt.Errorf("row %d carries PartitionID %d in partition %d", key, r.PartitionID, p)
				return false
			}
			return true
		})
		if bad != nil {
			return bad
		}
	}
	return nil
}
