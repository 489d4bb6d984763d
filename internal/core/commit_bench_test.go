package core_test

import (
	"testing"

	"bamboo/internal/core"
	"bamboo/internal/stats"
	"bamboo/internal/storage"
	"bamboo/internal/wal"
	"bamboo/internal/workload/ycsb"
)

// benchCommit drives the full single-session commit path — lock
// acquisition, private write-image copy (served from the recycled-image
// pool in steady state), WAL encode+append, version install, release —
// one committed YCSB transaction per benchmark op, on the same
// medium-contention profile the alloc-budget gates measure. Run with
// -benchmem: the CI alloc-gate job parses allocs/op and B/op from
// BenchmarkCommit and fails on regression (see .github/workflows/ci.yml).
func benchCommit(b *testing.B, cfg core.Config) {
	db := core.NewDB(cfg)
	defer db.Close()
	w, err := ycsb.Load(db, ycsb.Config{
		Rows: 20000, OpsPerTxn: 16, Theta: 0.6, ReadRatio: 0.5,
		Columns: 10, ColumnBytes: 100,
	})
	if err != nil {
		b.Fatal(err)
	}
	eng := core.NewLockEngine(db)
	sess := eng.NewSession(0, &stats.Collector{})
	gen := w.Generator()
	const txns = 512
	fns := make([]core.TxnFunc, txns)
	for i := range fns {
		fns[i] = gen(0, i)
	}
	// Warm up: grow the session scratch, histogram and image pool to
	// steady state so the measured ops see the recycled-buffer path.
	for i := 0; i < txns; i++ {
		if err := sess.Run(fns[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sess.Run(fns[i%txns]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCommit(b *testing.B) { benchCommit(b, core.Bamboo()) }

func BenchmarkCommitWoundWait(b *testing.B) { benchCommit(b, core.WoundWait()) }

// BenchmarkCommitCrossPartitionBatch is the cross-partition line of the
// layer ledger: one session commits transactions that each update one
// row in each partition of a two-partition WALDir DB under fsync=batch,
// so every commit sequences a record in both logs and waits for both
// devices' syncs. It reports ns and fsyncs per commit; the two syncs
// overlap when the commit writes both logs before it waits for either.
func BenchmarkCommitCrossPartitionBatch(b *testing.B) {
	cfg := core.Bamboo()
	cfg.Partitions = 2
	cfg.WALDir, cfg.WALFsync = b.TempDir(), wal.FsyncBatch
	db := core.NewDB(cfg)
	defer db.Close()
	schema := storage.NewSchema("t", storage.Column{Name: "v", Type: storage.ColInt64})
	tbl, err := db.Catalog.CreateTablePartitioned(schema, 2,
		storage.FuncPartitioner{N: 2, Fn: func(k uint64) int { return int(k) }})
	if err != nil {
		b.Fatal(err)
	}
	tbl.MustInsertRow(0, nil)
	tbl.MustInsertRow(1, nil)
	sess := core.NewLockEngine(db).NewSession(0, &stats.Collector{})
	both := func(tx core.Tx) error {
		for k := uint64(0); k < 2; k++ {
			if err := tx.Update(tbl.Get(k), func(img []byte) { schema.AddInt64(img, 0, 1) }); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < 16; i++ {
		if err := sess.Run(both); err != nil {
			b.Fatal(err)
		}
	}
	before := db.WALStats().Syncs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sess.Run(both); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(db.WALStats().Syncs-before)/float64(b.N), "fsyncs/commit")
}
