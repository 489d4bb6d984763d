package bench_test

import (
	"sort"
	"testing"
	"time"

	"bamboo/internal/bench"
	"bamboo/internal/core"
	"bamboo/internal/stats"
	"bamboo/internal/workload/tpcc"
)

// TestReadMVCCSweepSmoke runs the readmvcc experiment at micro scale with
// a pinned read-only fraction and asserts the MVCC-specific telemetry
// flows end to end: the BAMBOO+mvcc series actually serves reads from
// the snapshot path (snapshot_reads > 0), the plain BAMBOO baseline
// never does, and both series commit work at every point.
func TestReadMVCCSweepSmoke(t *testing.T) {
	s := tiny()
	s.TxnsPerWorker = 40
	s.ReadOnlyFrac = 0.9
	rows := bench.ReadMVCCSweep(s)
	if len(rows) != 4 { // 2 thetas × 1 pinned fraction × 2 builders
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Report.Commits == 0 {
			t.Errorf("%s at %s committed nothing", r.Protocol, r.X)
		}
		switch r.Protocol {
		case "BAMBOO+mvcc":
			if r.Report.SnapshotReads == 0 {
				t.Errorf("%s at %s served no snapshot reads", r.Protocol, r.X)
			}
		case "BAMBOO":
			if r.Report.SnapshotReads != 0 {
				t.Errorf("%s at %s reports %d snapshot reads on the lock-only engine",
					r.Protocol, r.X, r.Report.SnapshotReads)
			}
		default:
			t.Errorf("unexpected series %q", r.Protocol)
		}
	}
}

// TestStockLevelSnapshotInterference is the writer-interference probe for
// the MVCC tentpole claim: TPC-C's StockLevel — a long read-only scan of
// the district's recent orders, sharing the district row with NewOrder's
// hot write — must stop blocking writers once it runs on the snapshot
// path. The probe runs the same stock-level-heavy mix on an MVCC engine
// and on the plain locking engine and asserts (a) the scans actually used
// the snapshot path, and (b) the MVCC run's commit p99 did not regress
// past a generous multiple of the locking run's. The factor is loose
// because 1-CPU CI hosts schedule noisily; the regression this probe
// exists to catch — scans serializing behind (and wounding) writers —
// inflates p99 by an order of magnitude, not tens of percent. Medians of
// three runs per engine absorb single-run scheduler luck.
func TestStockLevelSnapshotInterference(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run interference probe skipped in -short mode")
	}
	cfg := tpcc.DefaultConfig()
	cfg.Warehouses = 1
	cfg.Items = 200
	cfg.CustomersPerDistrict = 60
	cfg.StockLevelFraction = 0.3

	runOnce := func(mvcc bool) stats.Report {
		cc := core.Bamboo()
		cc.MVCC = mvcc
		db := core.NewDB(cc)
		defer db.Close()
		w, err := tpcc.Load(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := core.RunN(core.NewLockEngine(db), 4, 150, w.Generator())
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res.Report
	}
	median := func(mvcc bool) (p99 time.Duration, snaps uint64) {
		var p99s []time.Duration
		for i := 0; i < 3; i++ {
			rep := runOnce(mvcc)
			p99s = append(p99s, rep.LatencyP99)
			snaps += rep.SnapshotReads
		}
		sort.Slice(p99s, func(i, j int) bool { return p99s[i] < p99s[j] })
		return p99s[1], snaps
	}

	lockP99, lockSnaps := median(false)
	mvccP99, mvccSnaps := median(true)
	t.Logf("commit p99: locking %v, mvcc %v; snapshot reads: %d", lockP99, mvccP99, mvccSnaps)
	if lockSnaps != 0 {
		t.Fatalf("locking run reports %d snapshot reads", lockSnaps)
	}
	if mvccSnaps == 0 {
		t.Fatal("stock-level scans never used the snapshot path")
	}
	if mvccP99 > 4*lockP99 {
		t.Errorf("MVCC run's p99 (%v) regressed past 4x the locking run's (%v): "+
			"snapshot scans are interfering with writers", mvccP99, lockP99)
	}
}
