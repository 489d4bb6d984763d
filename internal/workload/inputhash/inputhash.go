// Package inputhash fingerprints a workload's inputs: the accesses its
// generated transactions make and the rows its loader writes. The
// workload packages' golden tests pin these fingerprints, so any change to
// what a generator draws, in what order, or to what a loader writes fails
// them.
package inputhash

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"slices"

	"bamboo/internal/core"
	"bamboo/internal/storage"
)

// Tx is a core.Tx that executes nothing and records everything: each
// access's kind, table and key, the 8-byte words an Update's mutate
// changes, DeclareOps and MarkReadOnly calls, and the body's error. Reads
// and Updates see the rows' committed images; Updates mutate a private
// copy, so the tables never change and a body may be run any number of
// times. An Insert records its table only: TPC-C keys its history rows by
// a counter all workers share and stamps its orders with the wall clock.
type Tx struct {
	h      hash.Hash64
	worker int
	img    []byte
	b      [8]byte
}

// NewTx returns a recorder for worker's transactions.
func NewTx(worker int) *Tx { return &Tx{h: fnv.New64a(), worker: worker} }

func (t *Tx) word(v uint64) {
	binary.LittleEndian.PutUint64(t.b[:], v)
	t.h.Write(t.b[:])
}

func (t *Tx) access(kind byte, tbl *storage.Table, key uint64) {
	t.h.Write([]byte{kind})
	t.h.Write([]byte(tbl.Schema.Name))
	t.word(key)
}

// Read implements core.Tx.
func (t *Tx) Read(row *storage.Row) ([]byte, error) {
	t.access('R', row.Table, row.Key)
	return row.CommittedImage(), nil
}

// Update implements core.Tx.
func (t *Tx) Update(row *storage.Row, mutate func(img []byte)) error {
	t.access('U', row.Table, row.Key)
	old := row.CommittedImage()
	t.img = append(t.img[:0], old...)
	mutate(t.img)
	for i := 0; i < len(old); i += 8 {
		j := min(i+8, len(old))
		if string(t.img[i:j]) != string(old[i:j]) {
			t.word(uint64(i))
			t.h.Write(t.img[i:j])
		}
	}
	return nil
}

// Insert implements core.Tx.
func (t *Tx) Insert(tbl *storage.Table, _ uint64, _ []byte) error {
	t.h.Write([]byte{'I'})
	t.h.Write([]byte(tbl.Schema.Name))
	return nil
}

// DeclareOps implements core.Tx.
func (t *Tx) DeclareOps(n int) {
	t.h.Write([]byte{'D'})
	t.word(uint64(n))
}

// MarkReadOnly implements core.ReadOnly; it declines, as an engine without
// MVCC does, so the body goes on to issue its reads.
func (t *Tx) MarkReadOnly() bool {
	t.h.Write([]byte{'M'})
	return false
}

// Worker implements core.Tx.
func (t *Tx) Worker() int { return t.worker }

// ID implements core.Tx.
func (t *Tx) ID() uint64 { return 0 }

// Run records one transaction body, its error included.
func (t *Tx) Run(fn core.TxnFunc) {
	t.h.Write([]byte{'T'})
	if err := fn(t); err != nil {
		t.h.Write([]byte(err.Error()))
	}
}

// Sum returns the fingerprint of everything recorded so far.
func (t *Tx) Sum() uint64 { return t.h.Sum64() }

// Stream fingerprints worker's first n transactions from next.
func Stream(next func(seq int) core.TxnFunc, worker, n int) uint64 {
	t := NewTx(worker)
	for i := 0; i < n; i++ {
		t.Run(next(i))
	}
	return t.Sum()
}

// Plans fingerprints the first n transactions gen draws for each of
// workers workers, drawing worker by worker as a benchmark fills its rings.
func Plans(gen func(worker int) func(seq int) core.TxnFunc, workers, n int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for k := 0; k < workers; k++ {
		binary.LittleEndian.PutUint64(b[:], Stream(gen(k), k, n))
		h.Write(b[:])
	}
	return h.Sum64()
}

// Table fingerprints every row of tbl in key order: its key and committed
// image.
func Table(tbl *storage.Table) uint64 {
	var keys []uint64
	tbl.Range(func(k uint64, _ *storage.Row) bool {
		keys = append(keys, k)
		return true
	})
	slices.Sort(keys)
	h := fnv.New64a()
	var b [8]byte
	h.Write([]byte(tbl.Schema.Name))
	for _, k := range keys {
		binary.LittleEndian.PutUint64(b[:], k)
		h.Write(b[:])
		h.Write(tbl.Get(k).CommittedImage())
	}
	return h.Sum64()
}

var _ core.Tx = (*Tx)(nil)
var _ core.ReadOnly = (*Tx)(nil)
