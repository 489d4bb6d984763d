package wal

import "bamboo/internal/txn"

// PartitionedLog is the durability side of a partitioned store: one Log —
// and its own device — per storage partition. Commit
// records are routed to the partition that owns their writes, so the
// commit path shares no structure across partitions and recovery can
// replay logs in parallel. A single-partition PartitionedLog is exactly
// the shared Log it wraps (the pre-partitioning layout, bit for bit).
type PartitionedLog struct {
	logs []*Log
}

// NewPartitioned builds one log per device.
func NewPartitioned(devs []Device) *PartitionedLog {
	pl := &PartitionedLog{logs: make([]*Log, len(devs))}
	for i, d := range devs {
		pl.logs[i] = New(d)
	}
	return pl
}

// Mark sets m[p], for every partition log p, to log p's Seq: the LSN it
// has sequenced so far, written or not, or 0 for a log whose device is
// no FileDevice, which appended every record at Submit; len(m) is
// Partitions(). A commit marks after it submits and a checkpoint after
// its scan; either then Waits on its mark, so neither is acknowledged
// before every record it can have seen is in its log.
func (pl *PartitionedLog) Mark(m []uint64) {
	for p := range m {
		m[p] = pl.Seq(p)
	}
}

// Wait returns once every partition log is written through its entry of
// mark, and under FsyncBatch synced through it, or with the first
// failure of a device it waited on. It writes every log before it waits
// for any sync, so the devices' syncers overlap their fsyncs instead of
// stacking them. An entry of 0 waits for nothing, and so does an empty
// mark. w is the waiting transaction: when another committer is writing
// a log, w waits for that write as txn.Txn.Wait waits, polling first if
// its Waiter's gate is open; a nil w waits as a fresh transaction, which
// never polls.
func (pl *PartitionedLog) Wait(mark []uint64, w *txn.Txn) error {
	var first error
	for p, lsn := range mark {
		if lsn > 0 {
			if err := pl.logs[p].file.writeThrough(lsn, w); err != nil && first == nil {
				first = err
			}
		}
	}
	for p, lsn := range mark {
		if d := pl.logs[p].file; lsn > 0 && d.policy == FsyncBatch {
			if err := d.waitSynced(lsn); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Partitions returns the number of partition logs.
func (pl *PartitionedLog) Partitions() int { return len(pl.logs) }

// Log returns partition p's log; per-worker appenders are drawn from it.
func (pl *PartitionedLog) Log(p int) *Log { return pl.logs[p] }

// Close closes every closable device, which stops its syncer. All
// partitions are closed even if one errors; the first error wins.
func (pl *PartitionedLog) Close() error {
	var first error
	for _, l := range pl.logs {
		if c, ok := l.dev.(interface{ Close() error }); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Seq returns partition p's last sequenced (not necessarily written)
// sequence number, or 0 if its device is no FileDevice.
func (pl *PartitionedLog) Seq(p int) uint64 {
	if d := pl.logs[p].file; d != nil {
		return d.Seq()
	}
	return 0
}

// File returns partition p's device if it is a FileDevice, or nil.
func (pl *PartitionedLog) File(p int) *FileDevice { return pl.logs[p].file }

// Stats sums the DeviceStats of every partition device that reports them.
func (pl *PartitionedLog) Stats() DeviceStats {
	var s DeviceStats
	for _, l := range pl.logs {
		if sd, ok := l.dev.(StatsDevice); ok {
			s = s.Add(sd.Stats())
		}
	}
	return s
}
