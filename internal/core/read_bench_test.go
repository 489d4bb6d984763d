package core_test

import (
	"testing"

	"bamboo/internal/core"
	"bamboo/internal/storage"
	"bamboo/internal/txn"
)

// BenchmarkUncontendedRead16 is the per-operation fast path in isolation:
// one session, one transaction of 16 shared reads of distinct rows nobody
// else touches, committed. Rows are resolved beforehand, so the table index is
// not measured; what is left is Run's fixed cost plus 16 × (Tx.Read →
// acquire → release).
func BenchmarkUncontendedRead16(b *testing.B) { benchmarkDistinctReads(b, 16) }

// BenchmarkLongRead1000 is fig7's long reader alone: one session, one
// transaction of 1 000 shared reads of distinct rows. Each read first
// looks its row up among the attempt's earlier accesses, so a lookup
// whose cost grows with the attempt shows here as a per-transaction time
// that grows with the square of its length.
func BenchmarkLongRead1000(b *testing.B) { benchmarkDistinctReads(b, 1000) }

// benchmarkDistinctReads commits transactions of ops shared reads of
// distinct uncontended rows on one session, each transaction starting
// where the previous one ended in a table of 4 096 rows.
func benchmarkDistinctReads(b *testing.B, ops int) {
	db := core.NewDB(core.Bamboo())
	defer db.Close()
	tbl := testTable(db, 4096)
	rows := make([]*storage.Row, 4096)
	for k := range rows {
		rows[k] = tbl.Get(uint64(k))
	}
	sess := core.NewLockEngine(db).NewSession(0, newCollector())
	base := 0
	fn := func(tx core.Tx) error {
		for i := 0; i < ops; i++ {
			if _, err := tx.Read(rows[(base+i)&(len(rows)-1)]); err != nil {
				return err
			}
		}
		return nil
	}
	// One transaction first grows the session's access list (and, past
	// the walk, its row index) to size, so B/op is the steady state's.
	if err := sess.Run(fn); err != nil {
		b.Fatal(err)
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

// BenchmarkAcquireSnapshotWithPruner is what a read-only transaction pays
// the snapshot table on a live MVCC DB: two sessions registered, the
// pruner running at its default tick, one acquire/end pair per op. The
// benchmark/ probe txn.snapshot_begin_end_ns measures the same pair on a
// bare table, where no pruner can widen the scan.
func BenchmarkAcquireSnapshotWithPruner(b *testing.B) {
	cfg := core.Bamboo()
	cfg.MVCC = true
	db := core.NewDB(cfg)
	defer db.Close()
	eng := core.NewLockEngine(db)
	eng.NewSession(0, newCollector())
	db.Snap.Register(1)
	alloc := txn.NewTSAlloc(1)
	b.ReportAllocs()
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		sum += db.Snap.AcquireSnapshot(1, alloc)
		db.Snap.EndSnapshot(1)
	}
	if sum == 0 {
		b.Fatal("no snapshot drawn")
	}
}
