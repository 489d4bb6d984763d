package core_test

import (
	"testing"

	"bamboo/internal/core"
	"bamboo/internal/storage"
	"bamboo/internal/txn"
)

// BenchmarkUncontendedRead16 is the per-operation fast path in isolation:
// one session, one transaction of 16 shared reads of distinct rows nobody
// else touches, committed. Rows are resolved beforehand, so the index is
// not measured; what is left is Run's fixed cost plus 16 × (Tx.Read →
// acquire → release).
func BenchmarkUncontendedRead16(b *testing.B) {
	const ops = 16
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
