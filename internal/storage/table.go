package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"bamboo/internal/lock"
)

// Row is one tuple. It embeds the protocol state every concurrency-control
// scheme in this repository needs, and keeps its image in one of two
// homes, chosen by whether the engine's readers take the entry latch:
//
//   - Entry: the lock entry, whose Data is the image of latched readers:
//     the lock engines, the loader and recovery, and IC3;
//   - TID: the Silo timestamp/lock word;
//   - Aux: per-protocol extension state (IC3's per-column accessor lists);
//   - Versions: the image of latch-free readers, MVCC snapshots and Silo.
type Row struct {
	Entry lock.Entry
	TID   atomic.Uint64
	Aux   any

	// Versions is the version chain: committed images stamped with their
	// commit timestamp (Silo's: its TID), newest first, resolved
	// latch-free. Kept on MVCC tables (Catalog.SetMVCC) and by Silo;
	// otherwise it stays the empty zero value.
	Versions VersionChain

	// Key is the primary key the row was inserted under.
	Key uint64
	// PartitionID is the id of the partition the row lives in — the seam
	// multi-node routing and per-partition telemetry key off.
	PartitionID int
	// Table is a back-reference to the owning table (schema access).
	Table *Table
}

// Schema returns the row's schema.
func (r *Row) Schema() *Schema { return r.Table.Schema }

// CommittedImage returns the row's image whichever engine wrote it: the
// version chain's head if the row has one, else the lock entry's image.
// It is the committed image only once no transaction is running — under
// Bamboo the entry may hold a retired, uncommitted write, and under IC3 a
// finished piece's — so it serves checks of a quiescent database.
func (r *Row) CommittedImage() []byte {
	if v := r.Versions.Head(); v != nil {
		return v.Image()
	}
	return r.Entry.CurrentData()
}

// Table is a collection of rows with a schema, stored as a set of
// Partitions chosen by a Partitioner. Every partition owns its own primary
// index, row count and insert path; the table is only the router. A
// single-partition table (the default) behaves exactly like the old flat
// table.
type Table struct {
	Schema *Schema
	part   Partitioner
	parts  []*Partition
	// mvcc, set at creation from the owning catalog, makes inserts seed
	// each row's version chain so snapshot readers can see it.
	mvcc bool
}

// NewTable creates an empty single-partition table with a primary index
// sized for the given expected row count (0 for default).
func NewTable(schema *Schema, expectRows int) *Table {
	return NewPartitionedTable(schema, expectRows, SinglePartition{})
}

// NewPartitionedTable creates an empty table whose rows are split across
// p.NumPartitions() partitions by p; expectRows sizes the per-partition
// indexes in aggregate.
func NewPartitionedTable(schema *Schema, expectRows int, p Partitioner) *Table {
	if p == nil {
		p = SinglePartition{}
	}
	n := p.NumPartitions()
	if n < 1 {
		panic(fmt.Sprintf("storage: partitioner for table %s has %d partitions", schema.Name, n))
	}
	t := &Table{Schema: schema, part: p, parts: make([]*Partition, n)}
	per := expectRows / n
	for i := range t.parts {
		t.parts[i] = &Partition{id: i, index: NewHashIndex(per)}
	}
	return t
}

// NumPartitions returns the table's partition count.
func (t *Table) NumPartitions() int { return len(t.parts) }

// Partition returns partition i.
func (t *Table) Partition(i int) *Partition { return t.parts[i] }

// PartitionFor returns the partition id key routes to.
func (t *Table) PartitionFor(key uint64) int { return t.part.Partition(key) }

// InsertRow creates a row with the given key and image and registers it in
// its partition's primary index. It returns an error if the key already
// exists. Inserts into distinct partitions share no mutable state, which
// is what makes partition-parallel loading embarrassingly parallel. On a
// versioned table the row's version chain is seeded at timestamp 0: a
// loaded row is visible to every snapshot.
func (t *Table) InsertRow(key uint64, image []byte) (*Row, error) {
	return t.InsertRowAt(key, image, 0)
}

// InsertRowAt is InsertRow for commit-time inserts on a versioned table:
// the new row's version chain is seeded at commit timestamp ts, so
// snapshots older than the inserting transaction do not see it. On a
// non-versioned table ts is ignored.
func (t *Table) InsertRowAt(key uint64, image []byte, ts uint64) (*Row, error) {
	if image == nil {
		image = t.Schema.NewRowImage()
	}
	if len(image) != t.Schema.RowSize() {
		return nil, fmt.Errorf("storage: image size %d != schema size %d for table %s",
			len(image), t.Schema.RowSize(), t.Schema.Name)
	}
	pid := t.part.Partition(key)
	if pid < 0 || pid >= len(t.parts) {
		return nil, fmt.Errorf("storage: key %d routed to partition %d of %d in table %s",
			key, pid, len(t.parts), t.Schema.Name)
	}
	p := t.parts[pid]
	r := p.newRow()
	r.Key, r.PartitionID, r.Table = key, pid, t
	r.Entry.Init(image)
	if t.mvcc {
		r.Versions.Seed(ts, image)
	}
	if !p.index.Insert(key, r) {
		// The refused row stays carved out of its slab, unreachable: a
		// duplicate key is an error path, not worth a give-back protocol.
		return nil, fmt.Errorf("storage: duplicate key %d in table %s", key, t.Schema.Name)
	}
	p.count.Add(1)
	return r, nil
}

// MVCC reports whether the table maintains version chains.
func (t *Table) MVCC() bool { return t.mvcc }

// MustInsertRow is InsertRow that panics on error; used by loaders.
func (t *Table) MustInsertRow(key uint64, image []byte) *Row {
	r, err := t.InsertRow(key, image)
	if err != nil {
		panic(err)
	}
	return r
}

// Get returns the row for key, or nil — including when the partitioner
// routes the key out of range (a probe for a key outside the partitioned
// domain is a miss, not a crash; inserts of such keys fail loudly).
func (t *Table) Get(key uint64) *Row {
	pid := t.part.Partition(key)
	if pid < 0 || pid >= len(t.parts) {
		return nil
	}
	return t.parts[pid].index.Get(key)
}

// Range iterates all rows across every partition in partition-id order;
// each row is visited exactly once. Within a partition the order is the
// index's (unspecified); see HashIndex.Range.
func (t *Table) Range(fn func(key uint64, r *Row) bool) {
	for _, p := range t.parts {
		stopped := false
		p.index.Range(func(k uint64, r *Row) bool {
			if !fn(k, r) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
	}
}

// Rows returns the number of rows across all partitions.
func (t *Table) Rows() int64 {
	var n int64
	for _, p := range t.parts {
		n += p.count.Load()
	}
	return n
}

// PartitionRows returns the per-partition row counts (load-skew
// telemetry).
func (t *Table) PartitionRows() []int64 {
	counts := make([]int64, len(t.parts))
	for i, p := range t.parts {
		counts[i] = p.count.Load()
	}
	return counts
}

// Catalog is a named collection of tables.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	// mvcc makes every table created in this catalog maintain version
	// chains (SetMVCC; set before any table exists).
	mvcc bool
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return &Catalog{tables: make(map[string]*Table)} }

// CreateTable creates and registers a single-partition table.
func (c *Catalog) CreateTable(schema *Schema, expectRows int) (*Table, error) {
	return c.CreateTablePartitioned(schema, expectRows, SinglePartition{})
}

// CreateTablePartitioned creates and registers a table partitioned by p
// (nil = single partition). The catalog preserves the partition layout:
// lookups return the same routed table for the table's lifetime.
func (c *Catalog) CreateTablePartitioned(schema *Schema, expectRows int, p Partitioner) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tables[schema.Name]; dup {
		return nil, fmt.Errorf("storage: table %q already exists", schema.Name)
	}
	t := NewPartitionedTable(schema, expectRows, p)
	t.mvcc = c.mvcc
	c.tables[schema.Name] = t
	return t, nil
}

// SetMVCC makes tables created in this catalog maintain per-row version
// chains (and applies to already-registered tables, for tests). Call
// before loading any data.
func (c *Catalog) SetMVCC(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mvcc = on
	for _, t := range c.tables {
		t.mvcc = on
	}
}

// MustCreateTable is CreateTable that panics on error.
func (c *Catalog) MustCreateTable(schema *Schema, expectRows int) *Table {
	t, err := c.CreateTable(schema, expectRows)
	if err != nil {
		panic(err)
	}
	return t
}

// MustCreateTablePartitioned is CreateTablePartitioned that panics on
// error.
func (c *Catalog) MustCreateTablePartitioned(schema *Schema, expectRows int, p Partitioner) *Table {
	t, err := c.CreateTablePartitioned(schema, expectRows, p)
	if err != nil {
		panic(err)
	}
	return t
}

// Table returns the named table, or nil.
func (c *Catalog) Table(name string) *Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tables[name]
}

// AllTables returns the tables in the catalog (unspecified order); the
// version pruner sweeps over this.
func (c *Catalog) AllTables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	return out
}

// Tables returns the table names in the catalog.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	return names
}
