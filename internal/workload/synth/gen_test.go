package synth_test

import (
	"sync"
	"testing"

	"bamboo/internal/core"
	"bamboo/internal/workload/inputhash"
	"bamboo/internal/workload/synth"
)

// TestGeneratorWorkersDrawOwnStreams runs four workers' first calls and
// their plans concurrently through one Generator (under -race, a shared
// write between them fails it): each worker's sequence must be its own
// NewGenerator stream.
func TestGeneratorWorkersDrawOwnStreams(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.Rows = 2000
	cfg.HotspotPos = []float64{0, 1}
	w, err := synth.Load(core.NewDB(core.Bamboo()), cfg)
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

// BenchmarkSynthPlan draws one hotspot-shaped plan (8 ops, one hot row)
// through Generator. CI holds it at 1 allocs/op: the TxnFunc closure; the
// plan's keys come from a chunk shared by 256 plans.
func BenchmarkSynthPlan(b *testing.B) {
	cfg := synth.DefaultConfig()
	cfg.Rows = 10_000
	cfg.TxnLen = 8
	w, err := synth.Load(core.NewDB(core.Bamboo()), cfg)
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
