package ycsb_test

import (
	"sync"
	"testing"

	"bamboo/internal/core"
	"bamboo/internal/workload/inputhash"
	"bamboo/internal/workload/ycsb"
)

// TestGeneratorWorkersDrawOwnStreams runs four workers' first calls and
// their plans concurrently through one Generator (under -race, a shared
// write between them fails it): each worker's sequence must be its own
// NewGenerator stream.
func TestGeneratorWorkersDrawOwnStreams(t *testing.T) {
	cfg := smallConfig()
	cfg.ReadOnlyFrac = 0.25
	w, err := ycsb.Load(core.NewDB(core.Bamboo()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	const workers, n = 4, 1000
	gen := w.Generator()
	got := make([]uint64, workers)
	var wg sync.WaitGroup
	for k := range got {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			got[k] = inputhash.Stream(func(seq int) core.TxnFunc { return gen(k, seq) }, k, n)
		}(k)
	}
	wg.Wait()
	for k, sum := range got {
		if want := inputhash.Stream(w.NewGenerator(k), k, n); sum != want {
			t.Errorf("worker %d drew %#x, want its own stream %#x", k, sum, want)
		}
	}
}

// BenchmarkYCSBPlan draws one plan through Generator, as core.RunFor does
// inside its timed loop. CI holds it at 1 allocs/op: the TxnFunc closure;
// the plan's ops come from a chunk shared by 256 plans.
func BenchmarkYCSBPlan(b *testing.B) {
	for _, tc := range []struct {
		name  string
		theta float64
	}{{"theta=0", 0}, {"theta=0.9", 0.9}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := ycsb.DefaultConfig()
			cfg.Rows = 20_000
			cfg.ColumnBytes = 8
			cfg.Theta = tc.theta
			w, err := ycsb.Load(core.NewDB(core.Bamboo()), cfg)
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
		})
	}
}
