package core

import (
	"bamboo/internal/storage"
	"bamboo/internal/txn"
	"bamboo/internal/wal"
)

// CommitLog is how every engine — the lock engine, Silo, IC3 — logs a
// commit: the attempt's writes are split by owning partition (an update
// by its row's partition, an insert by where its table routes the key)
// and Submit sequences one record per touched partition in that
// partition's log, all under the transaction's id. A single-log DB is
// the case where every write routes to log 0.
//
// A commit is two calls. Submit, at the commit point while the
// transaction still holds its locks, sequences the records; Wait, after
// the locks are released, returns once they are written (synced under
// FsyncBatch). A transaction that reads or overwrites this one's writes
// after the release therefore sequences its own record later, and the
// log, a prefix of the sequence, never holds a record without the
// records it depends on. That holds across logs too: what a commit read
// may sit in a log it does not write, so Wait also waits for every log
// it does not write — a commit with nothing to log, for all of them —
// to be written through the record sequenced last when it submitted,
// which covers every write it can have read. (The in-memory logs append
// at Submit, so there nothing is left to wait for.)
//
// A Submit failure is the device's sticky error: the caller rolls the
// attempt back, as for any failure before the commit point. A Wait
// failure comes after the release, so the attempt's effects stay in
// memory, visible to later transactions, as they would after a crash
// before the write; the log, whose records recovery trusts, lacks them,
// and the error sticks, so every later commit fails: at Submit if it
// writes that log, at Wait if not.
//
// A transaction whose writes span partitions commits one record per
// partition with the same TxnID; each partition's log remains a
// self-contained, prefix-consistent history of that partition's rows,
// which is what makes partition-parallel replay race-free. Cross-
// partition atomicity at the log level is the distributed follow-on's
// problem (path-sensitive atomic commit), not this layer's.
//
// Its buffers — one appender and one record per partition log, the
// touched-partition and ticket lists — are created once and reused, so
// steady-state commits allocate nothing. A CommitLog is not safe for
// concurrent use: each session owns one, by value.
type CommitLog struct {
	apps    []*wal.Appender
	recs    []wal.Record
	touched []int
	tickets []wal.Ticket
}

// NewCommitLog returns a commit log over the DB's partition logs.
func (db *DB) NewCommitLog() CommitLog {
	n := db.PLog.Partitions()
	l := CommitLog{apps: make([]*wal.Appender, n), recs: make([]wal.Record, n)}
	for p := range l.apps {
		l.apps[p] = db.PLog.Log(p).NewAppender()
	}
	return l
}

// Update adds row's after-image img to the pending commit.
func (l *CommitLog) Update(row *storage.Row, img []byte) {
	l.add(row.PartitionID, wal.Write{Table: row.Table.Schema.Name, Key: row.Key, Image: img})
}

// Insert is a row insert an attempt buffers until it commits:
// CommitLog.Insert logs it with the commit record, and ApplyInserts
// applies it once the record is sequenced.
type Insert struct {
	Table *storage.Table
	Key   uint64
	Image []byte
}

// Insert adds ins to the pending commit.
func (l *CommitLog) Insert(ins Insert) {
	l.add(ins.Table.PartitionFor(ins.Key), wal.Write{Table: ins.Table.Schema.Name, Key: ins.Key, Image: ins.Image})
}

// ApplyInserts applies the inserts of a commit whose record is
// sequenced, seeding versioned rows at commit timestamp ts. A failure — a
// duplicate key — is fatal in every engine: the record is in the log's
// sequence, so the attempt can neither retry nor roll back, and its
// caller releases it as committed.
func ApplyInserts(ins []Insert, ts uint64) error {
	for _, in := range ins {
		if _, err := in.Table.InsertRowAt(in.Key, in.Image, ts); err != nil {
			return fatalf("apply insert: %w", err)
		}
	}
	return nil
}

// add appends w to partition pid's pending record, listing the partition
// as touched on its first write.
func (l *CommitLog) add(pid int, w wal.Write) {
	rec := &l.recs[pid]
	if len(rec.Writes) == 0 {
		l.touched = append(l.touched, pid)
	}
	rec.Writes = append(rec.Writes, w)
}

// Submit sequences the pending writes, one record per touched partition
// log under txnID, and marks every other log through its last sequenced
// record (see CommitLog); it reports whether there was anything to log.
// Records are submitted to every touched log before Wait waits on any,
// so the partition devices' syncers overlap their fsyncs instead of
// stacking them. A failure comes back as a fatal error wrapping the
// device's, and leaves Wait nothing to wait for; either way the log is
// empty for the next commit.
func (l *CommitLog) Submit(txnID uint64) (wrote bool, err error) {
	tickets := l.tickets[:0]
	for pid, a := range l.apps {
		if len(l.recs[pid].Writes) == 0 {
			tickets = append(tickets, a.Mark())
		}
	}
	for _, pid := range l.touched {
		l.recs[pid].TxnID = txnID
		tk := l.apps[pid].Submit(&l.recs[pid])
		if serr := tk.Err(); serr != nil && err == nil {
			err = fatalf("wal append: %w", serr)
		}
		tickets = append(tickets, tk)
		l.recs[pid].Writes = l.recs[pid].Writes[:0]
	}
	wrote = len(l.touched) > 0
	l.touched = l.touched[:0]
	if err != nil {
		tickets = tickets[:0]
	}
	l.tickets = tickets
	return wrote, err
}

// Wait returns once every record the last Submit sequenced is written,
// and synced under FsyncBatch, and so is every record sequenced when it
// submitted on the logs it did not write. Call it after the release.
// t is the committing transaction: it waits for another committer's
// write of its records as txn.Txn.Wait waits. A failure comes back as a
// fatal error wrapping the device's.
func (l *CommitLog) Wait(t *txn.Txn) (err error) {
	for _, tk := range l.tickets {
		if _, werr := tk.Wait(t); werr != nil && err == nil {
			err = fatalf("wal write: %w", werr)
		}
	}
	l.tickets = l.tickets[:0]
	return err
}
