package core

import (
	"bamboo/internal/storage"
	"bamboo/internal/wal"
)

// CommitLog is how every engine — the lock engine, Silo, IC3 — logs a
// commit: the attempt's writes are split by owning partition (an update
// by its row's partition, an insert by where its table routes the key)
// and Commit appends one record per touched
// partition to that partition's log, all under the transaction's id. A
// single-log DB is the case where every write routes to log 0.
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
// applies it once the record is durable.
type Insert struct {
	Table *storage.Table
	Key   uint64
	Image []byte
}

// Insert adds ins to the pending commit.
func (l *CommitLog) Insert(ins Insert) {
	l.add(ins.Table.PartitionFor(ins.Key), wal.Write{Table: ins.Table.Schema.Name, Key: ins.Key, Image: ins.Image})
}

// ApplyInserts applies the inserts of a commit whose record is durable,
// seeding versioned rows at commit timestamp ts. A failure — a duplicate
// key — is fatal in every engine: the record is durable, so the attempt
// can neither retry nor roll back, and its caller releases it as
// committed.
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

// Commit appends the pending writes, one record per touched partition log
// under txnID, and returns once every record is durable; it reports
// whether there was anything to log. Records are submitted to every
// touched log before waiting on any, so the partition devices' syncers
// overlap their fsyncs instead of stacking them. A failed append comes back
// as a fatal error wrapping the device's; either way the log is empty
// for the next commit.
func (l *CommitLog) Commit(txnID uint64) (wrote bool, err error) {
	if len(l.touched) == 0 {
		return false, nil
	}
	tickets := l.tickets[:0]
	for _, pid := range l.touched {
		l.recs[pid].TxnID = txnID
		tickets = append(tickets, l.apps[pid].Submit(&l.recs[pid]))
	}
	l.tickets = tickets
	for _, tk := range tickets {
		if _, werr := tk.Wait(); werr != nil && err == nil {
			err = fatalf("wal append: %w", werr)
		}
	}
	for _, pid := range l.touched {
		l.recs[pid].Writes = l.recs[pid].Writes[:0]
	}
	l.touched = l.touched[:0]
	return true, err
}
