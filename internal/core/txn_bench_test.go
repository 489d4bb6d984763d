package core_test

import (
	"testing"

	"bamboo/internal/core"
	"bamboo/internal/stats"
	"bamboo/internal/workload/ycsb"
)

func BenchmarkTxnStatic(b *testing.B) {
	db := core.NewDB(core.Bamboo())
	defer db.Close()
	w, err := ycsb.Load(db, ycsb.Config{
		Rows: 20000, OpsPerTxn: 16, Theta: 0.0, ReadRatio: 0.5,
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sess.Run(fns[i%txns]); err != nil {
			b.Fatal(err)
		}
	}
}
