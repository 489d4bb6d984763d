// Package synth implements the paper's synthetic hotspot microbenchmark
// (§5.2–§5.3): transactions of a fixed length whose operations are random
// reads over a large table, except for a small number of read-modify-write
// "hotspot" accesses to globally shared tuples at configurable positions
// within the transaction.
//
// Placing one hotspot at the beginning reproduces §5.2 (no cascading
// aborts — only one uncommitted version chain); two hotspots at varying
// distances reproduce §5.3 (cascading aborts grow with the distance
// between the hotspots).
package synth

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"bamboo/internal/core"
	"bamboo/internal/storage"
	"bamboo/internal/workload"
)

// planChunk is the number of plans whose keys one allocation holds.
const planChunk = 256

// Config parametrizes the workload.
type Config struct {
	// Rows is the table size (paper: >100 GB table; scaled here).
	Rows int
	// TxnLen is the number of operations per transaction (paper: 4–64).
	TxnLen int
	// HotspotPos are the positions of the hotspot RMW operations as
	// fractions of the transaction length (0 = first op, 1 = last op).
	// Each position uses its own hot tuple, shared by all transactions.
	HotspotPos []float64
	// PayloadCols is the number of extra 8-byte payload columns.
	PayloadCols int
	// Seed seeds the per-worker generators.
	Seed int64
}

// DefaultConfig is a 16-op transaction with one hotspot at the beginning
// over a scaled-down table.
func DefaultConfig() Config {
	return Config{Rows: 100000, TxnLen: 16, HotspotPos: []float64{0}, PayloadCols: 1}
}

// Workload is a loaded synthetic workload.
type Workload struct {
	cfg    Config
	tbl    *storage.Table
	schema *storage.Schema
	valCol int
	// hot[i] is the hot row for hotspot i.
	hot []*storage.Row
	// hotOps[i] is the op index of hotspot i, sorted ascending.
	hotOps []int
}

// Load creates and populates the table inside db.
func Load(db *core.DB, cfg Config) (*Workload, error) {
	if cfg.Rows < cfg.TxnLen+len(cfg.HotspotPos) {
		return nil, fmt.Errorf("synth: table of %d rows too small for %d-op transactions",
			cfg.Rows, cfg.TxnLen)
	}
	cols := []storage.Column{{Name: "val", Type: storage.ColInt64}}
	for i := 0; i < cfg.PayloadCols; i++ {
		cols = append(cols, storage.Column{Name: fmt.Sprintf("pad%d", i), Type: storage.ColInt64})
	}
	schema := storage.NewSchema("synth", cols...)
	// Hash-partitioned like YCSB so partition telemetry stays meaningful
	// on synthetic experiments; rows are tiny, so the load stays serial.
	tbl, err := db.Catalog.CreateTablePartitioned(schema, cfg.Rows,
		storage.HashPartitioner{N: db.Partitions()})
	if err != nil {
		return nil, err
	}
	for k := 0; k < cfg.Rows; k++ {
		tbl.MustInsertRow(uint64(k), nil)
	}

	w := &Workload{cfg: cfg, tbl: tbl, schema: schema, valCol: schema.ColIndex("val")}
	type hotspot struct {
		op  int
		row *storage.Row
	}
	var hs []hotspot
	seen := map[int]bool{}
	for i, pos := range cfg.HotspotPos {
		op := int(pos * float64(cfg.TxnLen-1))
		if op < 0 {
			op = 0
		}
		if op >= cfg.TxnLen {
			op = cfg.TxnLen - 1
		}
		for seen[op] {
			op++ // hotspots occupy distinct ops
			if op >= cfg.TxnLen {
				op = 0
			}
		}
		seen[op] = true
		hs = append(hs, hotspot{op: op, row: tbl.Get(uint64(i))}) // rows 0..h-1 are hot
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i].op < hs[j].op })
	for _, h := range hs {
		w.hotOps = append(w.hotOps, h.op)
		w.hot = append(w.hot, h.row)
	}
	return w, nil
}

// Table returns the backing table.
func (w *Workload) Table() *storage.Table { return w.tbl }

// HotRows returns the hot tuples.
func (w *Workload) HotRows() []*storage.Row { return w.hot }

// NewGenerator returns a per-worker transaction generator.
func (w *Workload) NewGenerator(worker int) func(seq int) core.TxnFunc {
	rng := rand.New(rand.NewSource(w.cfg.Seed + int64(worker)*2654435761 + 99))
	nHot := len(w.cfg.HotspotPos)
	// One shared hot-row mutate closure, as ycsb's: built inside the op
	// loop it escapes through the Tx interface and allocates once per
	// hot-row update.
	bump := func(img []byte) {
		w.schema.AddInt64(img, w.valCol, 1)
	}
	// A plan keeps its keys for as long as its TxnFunc lives, so they are
	// carved from chunks of planChunk plans, never reused.
	nKeys := w.cfg.TxnLen - nHot
	keyChunk := workload.Chunk[uint64]{Size: planChunk * nKeys}
	return func(seq int) core.TxnFunc {
		// Pre-draw the random read keys (distinct, outside the hot set); a
		// repeat is found by scanning the keys already drawn.
		keys := keyChunk.Take(nKeys)
		for i := 0; i < nKeys; {
			k := uint64(rng.Intn(w.cfg.Rows-nHot) + nHot)
			if !slices.Contains(keys[:i], k) {
				keys[i] = k
				i++
			}
		}
		return func(tx core.Tx) error {
			tx.DeclareOps(w.cfg.TxnLen)
			ki := 0
			hi := 0
			for op := 0; op < w.cfg.TxnLen; op++ {
				if hi < len(w.hotOps) && w.hotOps[hi] == op {
					row := w.hot[hi]
					hi++
					if err := tx.Update(row, bump); err != nil {
						return err
					}
					continue
				}
				if _, err := tx.Read(w.tbl.Get(keys[ki])); err != nil {
					return err
				}
				ki++
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

// HotValue returns hot tuple i's committed counter (total committed
// increments) for consistency checks.
func (w *Workload) HotValue(i int) int64 {
	return w.schema.GetInt64(w.hot[i].CommittedImage(), w.valCol)
}
