package core_test

import (
	"bytes"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"bamboo/internal/core"
	"bamboo/internal/stats"
	"bamboo/internal/telemetry"
	"bamboo/internal/workload/ycsb"
)

// TestMetricsScrapeDuringRun is the concurrency proof for the live
// observability layer: scrapers hammer the registry — both the direct
// WriteMetrics/LiveReport path and real HTTP GETs — while workers run a
// contended workload. Under -race this asserts the whole collection path
// is data-race-free; the final scrape asserts it is not vacuous, and the
// endpoint's report must equal the run's merged report on every counter.
func TestMetricsScrapeDuringRun(t *testing.T) {
	cfg := core.Bamboo()
	cfg.Partitions = 4
	cfg.MetricsAddr = "127.0.0.1:0"
	db := core.NewDB(cfg)
	defer db.Close()

	addr := db.MetricsAddr()
	if addr == "" {
		t.Fatal("MetricsAddr empty with Config.MetricsAddr set")
	}
	w, err := ycsb.Load(db, ycsb.Config{
		Rows: 5000, OpsPerTxn: 16, Theta: 0.9, ReadRatio: 0.5,
		Columns: 4, ColumnBytes: 40, RMWFrac: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Direct scrapers: no HTTP stack between the race detector and the
	// counter loads.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					db.Metrics().WriteMetrics(io.Discard)
					db.LiveReport()
				}
			}
		}()
	}
	// One HTTP scraper: the path operators actually use.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, path := range []string{"/metrics", "/debug/vars"} {
					resp, err := http.Get("http://" + addr + path)
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}
	}()

	res := core.RunN(core.NewLockEngine(db), 4, 200, w.Generator())
	close(stop)
	wg.Wait()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Report.Upgrades == 0 {
		t.Error("no upgrades reported on an RMW-heavy run")
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"bamboo_up 1",
		`bamboo_info{protocol="BAMBOO"} 1`,
		`bamboo_partition_conflicts_total{partition="0"}`,
		`bamboo_txn_latency_seconds{quantile="0.99"}`,
		"bamboo_txn_upgrades_total",
		"bamboo_txn_useful_seconds_total",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("final scrape missing %q", want)
		}
	}
	// Every attempt went through the Live mirror and both reports read the
	// same Global, so the counters must agree exactly; the latency
	// quantiles come from a loaded copy of the histogram, whose extreme
	// buckets report bucket values instead of the exact min and max.
	live, run := db.LiveReport(), res.Report
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"commits", live.Commits, run.Commits},
		{"aborts", live.Aborts, run.Aborts},
		{"aborts_by", live.AbortsBy, run.AbortsBy},
		{"upgrades", live.Upgrades, run.Upgrades},
		{"retires", live.Retires, run.Retires},
		{"wounds", live.Wounds, run.Wounds},
		{"cascades", live.Cascades, run.Cascades},
		{"max_chain", live.MaxChain, run.MaxChain},
		{"snapshot_reads", live.SnapshotReads, run.SnapshotReads},
		{"versions_pruned", live.VersionsPruned, run.VersionsPruned},
		{"image_copies", live.ImageCopies, run.ImageCopies},
		{"image_pool_recycled", live.ImagePoolRecycled, run.ImagePoolRecycled},
		{"partition_accesses", live.PartitionAccesses, run.PartitionAccesses},
		{"partition_conflicts", live.PartitionConflicts, run.PartitionConflicts},
		{"partition_skew", live.PartitionSkew, run.PartitionSkew},
		{"lock_wait_ns", live.PerTxnLockWait, run.PerTxnLockWait},
		{"commit_wait_ns", live.PerTxnCommitWait, run.PerTxnCommitWait},
		{"abort_ns", live.PerTxnAbort, run.PerTxnAbort},
		{"useful_ns", live.PerTxnUseful, run.PerTxnUseful},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s: endpoint %v, run report %v", c.name, c.got, c.want)
		}
	}
	for _, q := range []struct {
		name      string
		got, want time.Duration
	}{
		{"latency_p50_ns", live.LatencyP50, run.LatencyP50},
		{"latency_p90_ns", live.LatencyP90, run.LatencyP90},
		{"latency_p95_ns", live.LatencyP95, run.LatencyP95},
		{"latency_p99_ns", live.LatencyP99, run.LatencyP99},
		{"latency_p999_ns", live.LatencyP999, run.LatencyP999},
	} {
		if d := q.got - q.want; d > q.want/64 || d < -q.want/64 {
			t.Errorf("%s: endpoint %v, run report %v (more than one sub-bucket apart)", q.name, q.got, q.want)
		}
	}
}

// TestFlatLayoutHasNoPartitionCounters pins a hot-path property: on the
// flat layout nothing allocates the per-partition counters until metrics
// are enabled, so RecordPartAccess stays a no-op instead of every worker
// adding to one shared cache line per row access.
func TestFlatLayoutHasNoPartitionCounters(t *testing.T) {
	db := core.NewDB(core.Bamboo())
	defer db.Close()
	if n := db.Global.NumPartitions(); n != 0 {
		t.Fatalf("flat layout has %d partition counters before EnableMetrics, want 0", n)
	}
	db.EnableMetrics(telemetry.NewRegistry())
	if n := db.Global.NumPartitions(); n != 1 {
		t.Fatalf("flat layout has %d partition counters after EnableMetrics, want 1", n)
	}
}

// TestMetricsSharedRegistry covers the bench-harness lifecycle: a
// process-level registry, EnableMetrics on a flat-layout DB (which must
// still initialize per-partition series — the scrape contract does not
// depend on Config.Partitions), then Close detaching it so the endpoint
// reports bamboo_up 0 instead of stale counters.
func TestMetricsSharedRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	db := core.NewDB(core.Bamboo())
	db.EnableMetrics(reg)
	if db.LiveStats() == nil {
		t.Fatal("LiveStats nil after EnableMetrics")
	}
	if db.MetricsAddr() != "" {
		t.Fatal("shared registry should not report a DB-owned address")
	}

	// Run a few transactions so counters are nonzero.
	w, err := ycsb.Load(db, ycsb.Config{
		Rows: 1000, OpsPerTxn: 8, Theta: 0.6, ReadRatio: 0.5,
		Columns: 2, ColumnBytes: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess := core.NewLockEngine(db).NewSession(0, &stats.Collector{})
	gen := w.Generator()
	for i := 0; i < 50; i++ {
		if err := sess.Run(gen(0, i)); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	reg.WriteMetrics(&buf)
	out := buf.String()
	if !strings.Contains(out, `bamboo_partition_accesses_total{partition="0"}`) {
		t.Fatalf("flat-layout metrics missing partition series:\n%s", out)
	}
	if !strings.Contains(out, "bamboo_txn_commits_total 50") {
		t.Fatalf("metrics missing commits:\n%s", out)
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	reg.WriteMetrics(&buf)
	if !strings.Contains(buf.String(), "bamboo_up 0") {
		t.Fatalf("closed DB still attached:\n%s", buf.String())
	}
}

// TestAllocBudgetMetricsEnabled is the observability alloc gate: with the
// endpoint serving and the Live mirror attached, the hot path must
// allocate exactly what it does with metrics off — the mirror is plain
// atomic adds into preallocated memory.
func TestAllocBudgetMetricsEnabled(t *testing.T) {
	plain := measureAllocsPerTxn(t, core.Bamboo())

	reg := telemetry.NewRegistry()
	addr, err := reg.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	db := core.NewDB(core.Bamboo())
	defer db.Close()
	db.EnableMetrics(reg)
	w, err := ycsb.Load(db, ycsb.Config{
		Rows: 20000, OpsPerTxn: 16, Theta: 0.6, ReadRatio: 0.5,
		Columns: 10, ColumnBytes: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess := core.NewLockEngine(db).NewSession(0, &stats.Collector{})
	gen := w.Generator()
	const txns = 200
	fns := make([]core.TxnFunc, txns)
	for i := range fns {
		fns[i] = gen(0, i)
	}
	// Warm up to steady-state capacity, as the other alloc gates do.
	for i := 0; i < txns; i++ {
		if err := sess.Run(fns[i]); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	got := testing.AllocsPerRun(txns, func() {
		if err := sess.Run(fns[i%txns]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("metrics off %.1f, metrics on %.1f allocs/txn (budget %.0f)", plain, got, allocBudget)
	if got > allocBudget {
		t.Fatalf("metrics-enabled allocs/txn = %.1f exceeds budget %.1f", got, allocBudget)
	}
	if got > plain+0.5 {
		t.Fatalf("metrics enablement allocates: %.1f vs %.1f allocs/txn plain", got, plain)
	}

	// The gate must not pass vacuously: the endpoint saw those commits.
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte("bamboo_txn_commits_total")) ||
		bytes.Contains(body, []byte("bamboo_txn_commits_total 0\n")) {
		t.Fatalf("endpoint did not observe the measured transactions:\n%s", body)
	}
}
