package wal

import "fmt"

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

// LifecycleDevice is the interface a device must satisfy for the
// storage lifecycle (checkpointing and log truncation) to manage it:
// expose the partition-local sequence, the live log footprint,
// and unlink-based truncation. FileDevice in segmented mode implements
// it.
type LifecycleDevice interface {
	Seq() uint64
	LiveBytes() int64
	TruncateBelow(seq uint64) (int64, error)
}

// Seq returns partition p's last sequenced (not necessarily written)
// sequence number, or 0 if its device does not track one.
func (pl *PartitionedLog) Seq(p int) uint64 {
	if ld, ok := pl.logs[p].dev.(LifecycleDevice); ok {
		return ld.Seq()
	}
	return 0
}

// LiveBytes returns the live log footprint of partition p's device, or 0
// if it does not report one.
func (pl *PartitionedLog) LiveBytes(p int) int64 {
	if ld, ok := pl.logs[p].dev.(LifecycleDevice); ok {
		return ld.LiveBytes()
	}
	return 0
}

// TruncateBelow drops partition p's log frames with sequence ≤ seq (to
// whole-segment granularity), returning the bytes reclaimed. It errors
// if the partition's device cannot truncate.
func (pl *PartitionedLog) TruncateBelow(p int, seq uint64) (int64, error) {
	ld, ok := pl.logs[p].dev.(LifecycleDevice)
	if !ok {
		return 0, fmt.Errorf("wal: partition %d device cannot truncate", p)
	}
	return ld.TruncateBelow(seq)
}

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
