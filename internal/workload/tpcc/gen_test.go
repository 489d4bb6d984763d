package tpcc_test

import (
	"sync"
	"testing"

	"bamboo/internal/core"
	"bamboo/internal/workload/inputhash"
	"bamboo/internal/workload/tpcc"
)

// TestGeneratorWorkersDrawOwnStreams runs four workers' first calls and
// their transactions concurrently through one Generator (under -race, a
// shared write between them fails it): each worker's sequence must be the
// one a Generator used by that worker alone draws.
func TestGeneratorWorkersDrawOwnStreams(t *testing.T) {
	cfg := testConfig(2)
	cfg.StockLevelFraction = 0.1
	w, err := tpcc.Load(core.NewDB(core.Bamboo()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	const workers, n = 4, 500
	stream := func(gen core.Generator, k int) uint64 {
		return inputhash.Stream(func(seq int) core.TxnFunc { return gen(k, seq) }, k, n)
	}
	gen := w.Generator()
	got := make([]uint64, workers)
	var wg sync.WaitGroup
	for k := range got {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			got[k] = stream(gen, k)
		}(k)
	}
	wg.Wait()
	for k, sum := range got {
		if want := stream(w.Generator(), k); sum != want {
			t.Errorf("worker %d drew %#x, want its own stream %#x", k, sum, want)
		}
	}
}

// BenchmarkTPCCNewOrderPlan draws one NewOrder through Generator (the mix
// set to NewOrder only). CI holds it at 1 allocs/op: the TxnFunc closure;
// the order's items come from a chunk shared by at least 256 orders.
func BenchmarkTPCCNewOrderPlan(b *testing.B) {
	cfg := testConfig(2)
	cfg.PaymentFraction = 0
	w, err := tpcc.Load(core.NewDB(core.Bamboo()), cfg)
	if err != nil {
		b.Fatal(err)
	}
	gen := w.Generator()
	b.ReportAllocs()
	seq := 0
	for b.Loop() {
		gen(0, seq)
		seq++
	}
}
