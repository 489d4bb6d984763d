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
