package core

import "time"

// SetPruneInterval restarts db's version pruner with tick d instead of
// the 2 ms default: shorter to push watermark advance and sweeps into a
// short test, longer to keep the sweep out of one. Call it on an MVCC DB
// before any session starts.
func SetPruneInterval(db *DB, d time.Duration) {
	db.pruner.stop()
	db.pruner = startPruner(db, d)
}

// CheckpointTicks returns how many ticks db's checkpointer loop has
// received.
func CheckpointTicks(db *DB) uint64 {
	db.ckpt.mu.Lock()
	defer db.ckpt.mu.Unlock()
	return db.ckpt.ticks
}

// SnapshotPath names partition p's checkpoint snapshot at seq in dir.
var SnapshotPath = snapshotPath

// Snapshots returns the paths of partition p's snapshots in dir, newest
// first.
func Snapshots(dir string, p int) ([]string, error) {
	snaps, _, err := listSnapshots(dir, p)
	paths := make([]string, len(snaps))
	for i, sn := range snaps {
		paths[i] = sn.path
	}
	return paths, err
}

// WalkMax is the longest access list the lock engine walks.
const WalkMax = walkMax

// TxnIDBlock is how many transaction ids a session reserves at once.
const TxnIDBlock = txnIDBlock

// TxnIDsReserved returns how many transaction ids db has handed out in
// blocks.
func TxnIDsReserved(db *DB) uint64 { return db.txnIDs.Load() }

// SetCheckpointAfterStamp makes every checkpoint round of db call f
// between its stamp and its scan.
func SetCheckpointAfterStamp(db *DB, f func()) {
	db.ckpt.mu.Lock()
	defer db.ckpt.mu.Unlock()
	db.ckpt.afterStamp = f
}
