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
// transaction still holds its locks, sequences the records and then
// takes a mark of every partition log, each log's last sequenced LSN
// (wal.PartitionedLog.Mark); Wait, after the locks are released, returns
// once every log is written through the mark, and synced through it
// under FsyncBatch. A transaction that reads or overwrites this one's
// writes after the release therefore sequences its own record later,
// and the log, a prefix of the sequence, never holds a record without
// the records it depends on. That holds across logs too: what a commit
// read may sit in a log it does not write, and the mark covers it, since
// every write it can have read was sequenced before it was installed. A
// commit with nothing to log, an MVCC snapshot commit too, only marks.
// The checkpointer follows the same rule with a mark taken after its
// scan. (The in-memory logs append at Submit; their entries in a mark
// are 0, and there nothing is left to wait for.)
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
// Its buffers — one appender and one record per partition log, and the
// mark — are created once and reused, so steady-state commits allocate
// nothing. A CommitLog is not safe for concurrent use: each session owns
// one, by value.
type CommitLog struct {
	plog  *wal.PartitionedLog
	parts []commitPart
	mark  []uint64
}

// commitPart is a CommitLog's share of one partition log: its appender
// and the record pending there.
type commitPart struct {
	app wal.Appender
	rec wal.Record
}

// NewCommitLog returns a commit log over the DB's partition logs.
func (db *DB) NewCommitLog() CommitLog {
	n := db.PLog.Partitions()
	l := CommitLog{plog: db.PLog, parts: make([]commitPart, n), mark: make([]uint64, n)}
	for p := range l.parts {
		l.parts[p].app = *db.PLog.Log(p).NewAppender()
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

// add appends w to partition pid's pending record.
func (l *CommitLog) add(pid int, w wal.Write) {
	l.parts[pid].rec.Writes = append(l.parts[pid].rec.Writes, w)
}

// Submit sequences the pending writes, one record per touched partition
// log under txnID, and then marks every log (see CommitLog); it reports
// whether there was anything to log. A failure comes back as a fatal
// error wrapping the device's; the caller rolls back and does not Wait.
// Either way the log is empty for the next commit.
func (l *CommitLog) Submit(txnID uint64) (wrote bool, err error) {
	for i := range l.parts {
		part := &l.parts[i]
		if len(part.rec.Writes) == 0 {
			continue
		}
		part.rec.TxnID = txnID
		if _, serr := part.app.Submit(&part.rec); serr != nil && err == nil {
			err = fatalf("wal append: %w", serr)
		}
		part.rec.Writes = part.rec.Writes[:0]
		wrote = true
	}
	l.plog.Mark(l.mark)
	return wrote, err
}

// Wait returns once every log is written through the last Submit's mark,
// and synced through it under FsyncBatch. Call it after the release. t
// is the committing transaction: it waits for another committer's write
// as txn.Txn.Wait waits. A failure comes back as a fatal error wrapping
// the device's.
func (l *CommitLog) Wait(t *txn.Txn) error {
	if err := l.plog.Wait(l.mark, t); err != nil {
		return fatalf("wal write: %w", err)
	}
	return nil
}
