package occ_test

import (
	"testing"

	"bamboo/internal/core"
	"bamboo/internal/occ"
	"bamboo/internal/stats"
	"bamboo/internal/storage"
	"bamboo/internal/verify/verifytest"
)

// BenchmarkSiloRead16 is the OCC reference beside the lock engine's
// BenchmarkUncontendedRead16: one session, one transaction of 16 reads of
// distinct rows nobody else touches, validated and committed. What is
// left is Run's fixed cost plus 16 × (Tx.Read → readStable → RowSet) and
// the read-set validation.
func BenchmarkSiloRead16(b *testing.B) { benchmarkDistinctReads(b, 16) }

// BenchmarkSiloLongRead1000 is the same with 1 000 reads per transaction,
// beside BenchmarkLongRead1000: past core's walk limit each read finds
// its row through the row set's index.
func BenchmarkSiloLongRead1000(b *testing.B) { benchmarkDistinctReads(b, 1000) }

// benchmarkDistinctReads commits transactions of ops reads of distinct
// uncontended rows on one Silo session, each transaction starting where
// the previous one ended in a table of 4 096 rows.
func benchmarkDistinctReads(b *testing.B, ops int) {
	e := occ.New(core.NewDB(core.Config{}))
	tbl := verifytest.BuildDB(e.Database(), 4096)
	rows := make([]*storage.Row, 4096)
	for k := range rows {
		rows[k] = tbl.Get(uint64(k))
	}
	sess := e.NewSession(0, &stats.Collector{})
	base := 0
	fn := func(tx core.Tx) error {
		for i := 0; i < ops; i++ {
			if _, err := tx.Read(rows[(base+i)&(len(rows)-1)]); err != nil {
				return err
			}
		}
		return nil
	}
	// Warm-up transactions read every row once, so that each row has
	// seeded its version chain with its loader image (a 48 B version once
	// per row), and grow the session's row set and, past the walk, its
	// index to size, so B/op is the steady state's.
	for ; base < len(rows); base += ops {
		if err := sess.Run(fn); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base += ops
		if err := sess.Run(fn); err != nil {
			b.Fatal(err)
		}
	}
}
