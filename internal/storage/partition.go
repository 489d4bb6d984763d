package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Partitioner maps row keys to partition ids. Implementations must be
// pure functions of the key: every key routes to exactly one partition in
// [0, NumPartitions()) for the lifetime of the table. The routing decision
// is consulted on every Get/Insert, so implementations should be a handful
// of arithmetic instructions and must not allocate.
type Partitioner interface {
	// NumPartitions is the fixed partition count (≥ 1).
	NumPartitions() int
	// Partition returns the partition id for key, in [0, NumPartitions()).
	Partition(key uint64) int
}

// SinglePartition routes every key to partition 0 — the default layout,
// identical to the pre-partitioning flat table.
type SinglePartition struct{}

// NumPartitions implements Partitioner.
func (SinglePartition) NumPartitions() int { return 1 }

// Partition implements Partitioner.
func (SinglePartition) Partition(uint64) int { return 0 }

// HashPartitioner spreads keys uniformly over N partitions by Fibonacci
// hashing (the same multiplier the index shards use), so dense sequential
// keyspaces — YCSB's 0..Rows-1 — balance without coordination.
type HashPartitioner struct{ N int }

// NumPartitions implements Partitioner.
func (h HashPartitioner) NumPartitions() int { return h.N }

// Partition implements Partitioner.
func (h HashPartitioner) Partition(key uint64) int {
	return int(((key * 0x9E3779B97F4A7C15) >> 32) % uint64(h.N))
}

// FuncPartitioner adapts a key→partition function, for range partitioning
// over domain-specific key encodings (TPC-C partitions every
// warehouse-keyed table by the warehouse id packed into the key).
type FuncPartitioner struct {
	N  int
	Fn func(key uint64) int
}

// NumPartitions implements Partitioner.
func (f FuncPartitioner) NumPartitions() int { return f.N }

// Partition implements Partitioner.
func (f FuncPartitioner) Partition(key uint64) int { return f.Fn(key) }

// Partition is one horizontal shard of a Table: it owns its own primary
// hash index, row count and insert path, so partitions never share a
// mutable structure — loading and indexing scale with the partition count
// and a partition is the natural unit of multi-node placement.
type Partition struct {
	id    int
	index *HashIndex
	count atomic.Int64

	// Rows are carved from slabs, not allocated one by one: a commit-time
	// insert runs inside the inserting transaction's lock-holding window,
	// and rows are never freed individually, so one allocation per
	// slabRows rows costs nothing a per-row malloc would have saved.
	slabMu sync.Mutex
	slab   []Row
}

// slabRows is the number of rows per slab (~54 KB).
const slabRows = 256

// newRow returns a zeroed row from the partition's current slab.
func (p *Partition) newRow() *Row {
	p.slabMu.Lock()
	if len(p.slab) == 0 {
		p.slab = make([]Row, slabRows)
	}
	r := &p.slab[0]
	p.slab = p.slab[1:]
	p.slabMu.Unlock()
	return r
}

// ID returns the partition's id within its table.
func (p *Partition) ID() int { return p.id }

// Rows returns the partition's row count.
func (p *Partition) Rows() int64 { return p.count.Load() }

// Get returns the row for key, or nil. The caller is responsible for key
// actually routing to this partition.
func (p *Partition) Get(key uint64) *Row { return p.index.Get(key) }

// Range iterates the partition's rows; see HashIndex.Range.
func (p *Partition) Range(fn func(key uint64, r *Row) bool) { p.index.Range(fn) }

// ApplyRecord applies one write of a decoded WAL commit record to this
// partition during recovery: an existing row's image is replaced with the
// logged after-image, a missing row (a replayed transactional insert) is
// created and indexed here. t must be the partition's owning table and
// must route key to this partition — replay hands each partition log's
// records to the partition that produced them, which is what makes
// partition-parallel replay race-free.
//
// ApplyRecord is a recovery-path operation: it assumes no concurrent
// transaction processing on the partition (concurrent replay of OTHER
// partitions is fine; partitions share no mutable state).
func (p *Partition) ApplyRecord(t *Table, key uint64, img []byte) (*Row, error) {
	if pid := t.part.Partition(key); pid != p.id {
		return nil, fmt.Errorf("storage: replay of key %d into partition %d of table %s, but it routes to %d",
			key, p.id, t.Schema.Name, pid)
	}
	if len(img) != t.Schema.RowSize() {
		return nil, fmt.Errorf("storage: replay image size %d != schema size %d for table %s key %d",
			len(img), t.Schema.RowSize(), t.Schema.Name, key)
	}
	// The logged image is the transaction's private after-image; clone it
	// so the row owns its storage (the caller may reuse decode buffers).
	cp := make([]byte, len(img))
	copy(cp, img)
	if r := p.index.Get(key); r != nil {
		r.Entry.Init(cp)
		return r, nil
	}
	// A replayed transactional insert: the normal insert path applies
	// (routing was verified above, so it lands in this partition).
	return t.InsertRow(key, cp)
}
