// Package ycsb implements the YCSB workload as configured in the paper's
// §5.4: a single table with a primary key and payload columns, 16 accesses
// per transaction drawn from a Zipfian distribution with skew theta, a
// configurable read/update ratio, and an optional fraction of long
// read-only transactions scanning 1000 tuples (Figure 7).
//
// The paper's table is 100 M rows (~100 GB); the default here is scaled
// down, which preserves contention behaviour because the hot set is
// governed by theta, not the absolute table size.
package ycsb

import (
	"fmt"
	"math/rand"
	"sync"

	"bamboo/internal/core"
	"bamboo/internal/storage"
	"bamboo/internal/workload"
	"bamboo/internal/zipfian"
)

// loadSlabRows is the number of loaded row images one allocation holds,
// each aligned to cacheLine bytes, and planChunk the number of plans
// whose ops one allocation holds.
const (
	loadSlabRows = 256
	planChunk    = 256
	cacheLine    = 64
)

// Config parametrizes the workload.
type Config struct {
	// Rows is the table size.
	Rows int
	// OpsPerTxn is the number of accesses per transaction (paper: 16).
	OpsPerTxn int
	// Theta is the Zipfian skew (paper sweeps 0.5–0.99; 0.9 is the
	// high-contention default).
	Theta float64
	// ReadRatio is the probability an access is a read (paper: 0.5).
	ReadRatio float64
	// Columns is the number of payload columns (paper: 10).
	Columns int
	// ColumnBytes is each payload column's width (paper: 100).
	ColumnBytes int
	// LongReadFrac is the fraction of transactions that are long
	// read-only scans (Figure 7 uses 0.05); LongReadOps is their length
	// (Figure 7 uses 1000).
	LongReadFrac float64
	LongReadOps  int
	// ReadOnlyFrac is the fraction of transactions issued as declared
	// read-only: all accesses are reads and the body opts into the MVCC
	// snapshot path via core.MarkReadOnly (a no-op returning false when
	// the engine runs without MVCC — the plan still executes, through
	// shared locks). 0 keeps the classic mixed transactions only.
	ReadOnlyFrac float64
	// RMWFrac is the fraction of update accesses issued un-annotated: the
	// transaction Reads the row first and Updates it afterwards, so the
	// executor must upgrade the shared lock to exclusive in place instead
	// of knowing the write intent up front (the TXSQL-style contended
	// read-modify-write hotspot shape). 0 keeps the classic pre-declared
	// YCSB updates.
	RMWFrac float64
	// Seed seeds the generators.
	Seed int64
}

// DefaultConfig matches the paper's high-contention setup at reduced
// scale.
func DefaultConfig() Config {
	return Config{
		Rows: 200000, OpsPerTxn: 16, Theta: 0.9, ReadRatio: 0.5,
		Columns: 10, ColumnBytes: 100, LongReadOps: 1000,
	}
}

// Workload is a loaded YCSB workload.
type Workload struct {
	cfg      Config
	tbl      *storage.Table
	schema   *storage.Schema
	stampCol int
}

// Load creates and populates the YCSB table, hash-partitioned and loaded
// partition-parallel: one goroutine per partition inserts exactly the
// keys that route to it, touching no structure any other loader touches.
// Partition 0's rng stream is the one the serial load drew (Seed+7), so
// a single-partition load is bit-for-bit the pre-partitioning behavior.
func Load(db *core.DB, cfg Config) (*Workload, error) {
	if cfg.Rows <= cfg.OpsPerTxn {
		return nil, fmt.Errorf("ycsb: %d rows too small", cfg.Rows)
	}
	cols := []storage.Column{{Name: "f0", Type: storage.ColInt64}}
	for i := 1; i < cfg.Columns; i++ {
		cols = append(cols, storage.Column{
			Name: fmt.Sprintf("f%d", i), Type: storage.ColBytes, Size: cfg.ColumnBytes,
		})
	}
	schema := storage.NewSchema("ycsb", cols...)
	parts := db.Partitions()
	part := storage.HashPartitioner{N: parts}
	tbl, err := db.Catalog.CreateTablePartitioned(schema, cfg.Rows, part)
	if err != nil {
		return nil, err
	}
	loadRange := func(rng *rand.Rand, want int) {
		buf := make([]byte, cfg.ColumnBytes)
		// Images come from slabs of loadSlabRows rows, one allocation per
		// slab instead of one per row. Each starts on a cache line of its
		// own, as a separately allocated image does, so no two rows share
		// a line; each capacity is clamped, so no write to one image
		// reaches its neighbour's.
		size := schema.RowSize()
		stride := (size + cacheLine - 1) &^ (cacheLine - 1)
		slab := workload.Chunk[byte]{Size: loadSlabRows * stride}
		for k := 0; k < cfg.Rows; k++ {
			if part.Partition(uint64(k)) != want {
				continue
			}
			img := slab.Take(stride)[:size:size]
			for c := 1; c < cfg.Columns; c++ {
				rng.Read(buf)
				schema.SetBytes(img, c, buf)
			}
			tbl.MustInsertRow(uint64(k), img)
		}
	}
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			loadRange(rand.New(rand.NewSource(cfg.Seed+7+int64(p)*65537)), p)
		}(p)
	}
	wg.Wait()
	return &Workload{cfg: cfg, tbl: tbl, schema: schema, stampCol: 0}, nil
}

// Table returns the backing table.
func (w *Workload) Table() *storage.Table { return w.tbl }

// op is one planned access.
type op struct {
	key   uint64
	write bool
	// rmw marks an un-annotated read-modify-write: read first, then
	// update the same row through an SH→EX upgrade.
	rmw bool
}

// planTxn draws a transaction's access plan into ops: distinct keys
// (DBx1000 de-duplicates repeated Zipfian draws within a transaction) with
// the configured write ratio. Keys are sorted hottest-first in draw order —
// Zipfian rank 0 is the hottest tuple, matching DBx1000's loader. A
// repeated key is found by scanning the keys already drawn: a plan holds
// OpsPerTxn (16) of them, too few for a map to pay.
func (w *Workload) planTxn(z *zipfian.Zipfian, rng *rand.Rand, ops []op) []op {
	for i := 0; i < len(ops); {
		k := z.Next()
		if drawn(ops[:i], k) {
			continue
		}
		write := rng.Float64() >= w.cfg.ReadRatio
		ops[i] = op{
			key:   k,
			write: write,
			rmw:   write && rng.Float64() < w.cfg.RMWFrac,
		}
		i++
	}
	return ops
}

// drawn reports whether ops already holds key k.
func drawn(ops []op, k uint64) bool {
	for _, o := range ops {
		if o.key == k {
			return true
		}
	}
	return false
}

// NewGenerator returns a per-worker generator.
func (w *Workload) NewGenerator(worker int) func(seq int) core.TxnFunc {
	seed := w.cfg.Seed + int64(worker)*104729 + 13
	z := zipfian.New(uint64(w.cfg.Rows), w.cfg.Theta, seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5deece66d))
	// One shared mutate closure: building it inside the op loop would
	// allocate per Update call (it escapes through the Tx interface),
	// which at ~8 writes/txn is the difference between ~1 and ~9
	// steady-state allocs/txn on the alloc-gate harness.
	stamp := func(img []byte) {
		w.schema.AddInt64(img, w.stampCol, 1)
	}
	// Plans keep their ops for as long as their TxnFunc lives (a
	// benchmark's ring holds 65 536 of them), so ops are carved, never
	// reused.
	opChunk := workload.Chunk[op]{Size: planChunk * w.cfg.OpsPerTxn}
	return func(seq int) core.TxnFunc {
		if w.cfg.LongReadFrac > 0 && rng.Float64() < w.cfg.LongReadFrac {
			start := uint64(rng.Intn(w.cfg.Rows - w.cfg.LongReadOps))
			nOps := w.cfg.LongReadOps
			return func(tx core.Tx) error {
				tx.DeclareOps(nOps)
				for i := 0; i < nOps; i++ {
					if _, err := tx.Read(w.tbl.Get(start + uint64(i))); err != nil {
						return err
					}
				}
				return nil
			}
		}
		if w.cfg.ReadOnlyFrac > 0 && rng.Float64() < w.cfg.ReadOnlyFrac {
			ops := w.planTxn(z, rng, opChunk.Take(w.cfg.OpsPerTxn))
			return func(tx core.Tx) error {
				core.MarkReadOnly(tx)
				tx.DeclareOps(len(ops))
				for _, o := range ops {
					if _, err := tx.Read(w.tbl.Get(o.key)); err != nil {
						return err
					}
				}
				return nil
			}
		}
		ops := w.planTxn(z, rng, opChunk.Take(w.cfg.OpsPerTxn))
		return func(tx core.Tx) error {
			tx.DeclareOps(len(ops))
			for _, o := range ops {
				row := w.tbl.Get(o.key)
				if o.write {
					if o.rmw {
						// Un-annotated read-modify-write: the Update below
						// upgrades the shared lock in place.
						if _, err := tx.Read(row); err != nil {
							return err
						}
					}
					if err := tx.Update(row, stamp); err != nil {
						return err
					}
				} else if _, err := tx.Read(row); err != nil {
					return err
				}
			}
			return nil
		}
	}
}

// Generator adapts the workload to core.Generator: each worker draws
// from its own NewGenerator stream.
func (w *Workload) Generator() core.Generator {
	gens := &workload.PerWorker[func(int) core.TxnFunc]{New: w.NewGenerator}
	return func(worker, seq int) core.TxnFunc {
		return gens.Get(worker)(seq)
	}
}

// TotalWrites sums the f0 counters across the table — equal to the number
// of committed updates, for conservation checks.
func (w *Workload) TotalWrites() int64 {
	var total int64
	for k := 0; k < w.cfg.Rows; k++ {
		total += w.schema.GetInt64(w.tbl.Get(uint64(k)).CommittedImage(), w.stampCol)
	}
	return total
}
