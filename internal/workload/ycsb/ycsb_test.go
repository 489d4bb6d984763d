package ycsb_test

import (
	"testing"

	"bamboo/internal/core"
	"bamboo/internal/workload/ycsb"
)

func smallConfig() ycsb.Config {
	cfg := ycsb.DefaultConfig()
	cfg.Rows = 3000
	cfg.ColumnBytes = 8
	cfg.LongReadOps = 100
	return cfg
}

func TestYCSBWriteConservation(t *testing.T) {
	db := core.NewDB(core.Bamboo())
	w, err := ycsb.Load(db, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := core.RunN(core.NewLockEngine(db), 8, 100, w.Generator())
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// Committed transactions each perform a deterministic number of +1
	// updates; the table-wide sum must equal the total update count. We
	// can't know the per-txn write split externally, so check a weaker
	// invariant: the sum is positive and bounded by ops*txns.
	total := w.TotalWrites()
	if total <= 0 || total > int64(8*100*16) {
		t.Fatalf("total writes = %d out of range", total)
	}
}

func TestYCSBLongReadOnly(t *testing.T) {
	cfg := smallConfig()
	cfg.LongReadFrac = 1.0 // every transaction is a long scan
	db := core.NewDB(core.Bamboo())
	w, err := ycsb.Load(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := core.RunN(core.NewLockEngine(db), 4, 20, w.Generator())
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Report.Commits != 80 {
		t.Fatalf("commits = %d, want 80", res.Report.Commits)
	}
	if w.TotalWrites() != 0 {
		t.Fatal("read-only scan workload wrote data")
	}
}

func TestYCSBSkewHitsHotSet(t *testing.T) {
	cfg := smallConfig()
	cfg.Theta = 0.9
	db := core.NewDB(core.Bamboo())
	w, err := ycsb.Load(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := core.RunN(core.NewLockEngine(db), 4, 200, w.Generator())
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// With theta=0.9 the hottest key must absorb far more writes than an
	// average key.
	tbl := w.Table()
	hot := tbl.Schema.GetInt64(tbl.Get(0).Entry.CurrentData(), 0)
	if hot < 20 {
		t.Fatalf("hottest key got only %d writes under theta=0.9", hot)
	}
}

// TestYCSBPartitionedLoadComplete checks the partition-parallel loader
// produces a complete table: every key present exactly once, per-partition
// counts summing to Rows, access counters feeding the partition ids, and a
// contended run over the partitioned table conserving writes.
func TestYCSBPartitionedLoadComplete(t *testing.T) {
	cc := core.Bamboo()
	cc.Partitions = 4
	db := core.NewDB(cc)
	cfg := smallConfig()
	w, err := ycsb.Load(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl := w.Table()
	if tbl.NumPartitions() != 4 {
		t.Fatalf("partitions = %d, want 4", tbl.NumPartitions())
	}
	if got := tbl.Rows(); got != int64(cfg.Rows) {
		t.Fatalf("rows = %d, want %d", got, cfg.Rows)
	}
	for k := 0; k < cfg.Rows; k++ {
		r := tbl.Get(uint64(k))
		if r == nil {
			t.Fatalf("key %d missing after parallel load", k)
		}
		if r.PartitionID != tbl.PartitionFor(uint64(k)) {
			t.Fatalf("key %d in partition %d, routes to %d", k, r.PartitionID, tbl.PartitionFor(uint64(k)))
		}
	}
	var sum int64
	for _, c := range tbl.PartitionRows() {
		if c == 0 {
			t.Fatalf("empty partition after parallel load: %v", tbl.PartitionRows())
		}
		sum += c
	}
	if sum != int64(cfg.Rows) {
		t.Fatalf("partition counts sum to %d, want %d", sum, cfg.Rows)
	}

	res := core.RunN(core.NewLockEngine(db), 4, 100, w.Generator())
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	total := w.TotalWrites()
	if total <= 0 || total > int64(4*100*16) {
		t.Fatalf("total writes = %d out of range", total)
	}
	accs := db.Global.PartitionAccesses()
	if len(accs) != 4 {
		t.Fatalf("partition access counters = %v, want 4 entries", accs)
	}
	var accSum uint64
	for _, a := range accs {
		if a == 0 {
			t.Fatalf("a partition saw zero accesses: %v", accs)
		}
		accSum += a
	}
	if accSum == 0 {
		t.Fatal("no partition accesses recorded")
	}
}

func TestYCSBRMWMixRunsUnannotated(t *testing.T) {
	// Every update is issued read-then-update: the whole write load goes
	// through the executor's SH→EX upgrade path, under contention (theta
	// 0.9), and write conservation must still hold.
	for name, cc := range map[string]core.Config{
		"BAMBOO":     core.Bamboo(),
		"WOUND_WAIT": core.WoundWait(),
		"NO_WAIT":    core.NoWait(),
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			db := core.NewDB(cc)
			cfg := smallConfig()
			cfg.Theta = 0.9
			cfg.RMWFrac = 1.0
			w, err := ycsb.Load(db, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := core.RunN(core.NewLockEngine(db), 4, 60, w.Generator())
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if res.Report.Commits != 4*60 {
				t.Fatalf("commits = %d, want %d", res.Report.Commits, 4*60)
			}
			total := w.TotalWrites()
			if total <= 0 || total > int64(4*60*16) {
				t.Fatalf("total writes = %d out of range", total)
			}
		})
	}
}
