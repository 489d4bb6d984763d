package ycsb_test

import (
	"testing"

	"bamboo/internal/core"
	"bamboo/internal/workload/inputhash"
	"bamboo/internal/workload/ycsb"
)

// TestGoldenInputs pins the benchmark's two YCSB shapes to fingerprints
// of their inputs: the 20 000 loaded images and each of two workers'
// first 65 536 plans (4 096 under -short). Same seed, same inputs; a
// change to what or in which order the loader or a generator draws fails
// it.
func TestGoldenInputs(t *testing.T) {
	for _, tc := range []struct {
		name                string
		theta, readOnlyFrac float64
		table, plans, short uint64
	}{
		{"theta0", 0, 0, 0xb0165b547b8504f8, 0x41cb4de4c3b82c75, 0x0eb3df362bc952a1},
		{"theta0.9-ro0.5", 0.9, 0.5, 0xb0165b547b8504f8, 0x981d09f08fbf9aaf, 0x09ba92f0ff96c5c9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ycsb.DefaultConfig()
			cfg.Rows = 20_000
			cfg.Theta = tc.theta
			cfg.ReadOnlyFrac = tc.readOnlyFrac
			cfg.Seed = 1
			w, err := ycsb.Load(core.NewDB(core.Bamboo()), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := inputhash.Table(w.Table()); got != tc.table {
				t.Errorf("table fingerprint %#x, want %#x", got, tc.table)
			}
			n, want := 65_536, tc.plans
			if testing.Short() {
				n, want = 4_096, tc.short
			}
			if got := inputhash.Plans(w.NewGenerator, 2, n); got != want {
				t.Errorf("fingerprint of %d plans %#x, want %#x", n, got, want)
			}
		})
	}
}
