package synth_test

import (
	"testing"

	"bamboo/internal/core"
	"bamboo/internal/workload/inputhash"
	"bamboo/internal/workload/synth"
)

// TestGoldenInputs pins the benchmark's hotspot shape (one hot row at op
// 0 of 8-op transactions over 10 000 rows) to fingerprints of its inputs:
// the loaded table and each of two workers' first 65 536 plans (4 096 under -short).
func TestGoldenInputs(t *testing.T) {
	const wantTable, wantPlans, wantShort = 0x25663d5fc0f32039, 0x059aef798fa59e0b, 0x44fe70ab08873fb9
	cfg := synth.DefaultConfig()
	cfg.Rows = 10_000
	cfg.TxnLen = 8
	cfg.Seed = 1
	w, err := synth.Load(core.NewDB(core.Bamboo()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := inputhash.Table(w.Table()); got != wantTable {
		t.Errorf("table fingerprint %#x, want %#x", got, uint64(wantTable))
	}
	n, want := 65_536, uint64(wantPlans)
	if testing.Short() {
		n, want = 4_096, wantShort
	}
	if got := inputhash.Plans(w.NewGenerator, 2, n); got != want {
		t.Errorf("fingerprint of %d plans %#x, want %#x", n, got, want)
	}
}
