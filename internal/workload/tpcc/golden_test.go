package tpcc_test

import (
	"testing"

	"bamboo/internal/core"
	"bamboo/internal/storage"
	"bamboo/internal/workload/inputhash"
	"bamboo/internal/workload/tpcc"
)

// TestGoldenInputs pins the benchmark's TPC-C shape (2 warehouses, the
// default mix, seed 1) to fingerprints of its inputs: every loaded table
// and each of two workers' first 65 536 transactions from Generator (4 096 under
// -short).
func TestGoldenInputs(t *testing.T) {
	const wantTables, wantPlans, wantShort = 0x2ca8e12f33aecf2c, 0x70ffcda1c09e709a, 0xd43bf12a7fc069df
	cfg := tpcc.DefaultConfig()
	cfg.Warehouses = 2
	cfg.Seed = 1
	w, err := tpcc.Load(core.NewDB(core.Bamboo()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tables uint64
	for _, tbl := range []*storage.Table{
		w.Warehouse, w.District, w.Customer, w.Item, w.Stock,
		w.Orders, w.NewOrderTbl, w.OrderLine, w.HistoryTbl,
	} {
		tables = tables*31 + inputhash.Table(tbl)
	}
	if tables != wantTables {
		t.Errorf("table fingerprint %#x, want %#x", tables, uint64(wantTables))
	}
	gen := w.Generator()
	perWorker := func(worker int) func(int) core.TxnFunc {
		return func(seq int) core.TxnFunc { return gen(worker, seq) }
	}
	n, want := 65_536, uint64(wantPlans)
	if testing.Short() {
		n, want = 4_096, wantShort
	}
	if got := inputhash.Plans(perWorker, 2, n); got != want {
		t.Errorf("fingerprint of %d plans %#x, want %#x", n, got, want)
	}
}
