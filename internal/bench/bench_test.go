package bench_test

import (
	"strings"
	"testing"
	"time"

	"bamboo/internal/bench"
)

// tiny returns a scale small enough for CI-style smoke runs.
func tiny() bench.Scale {
	return bench.Scale{Threads: []int{4}, TxnsPerWorker: 60, Rows: 4000, RTT: 5 * time.Microsecond}
}

// TestAllExperimentsSmoke runs every experiment at tiny scale, checking
// that each produces rows and every protocol commits work. The full
// sweep takes ~20 s, so it is skipped under -short (CI runs it in a
// separate non-race job); TestQuickSmoke keeps one experiment covered
// in the fast path.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	for _, e := range bench.All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			rows := e.Run(tiny())
			if len(rows) == 0 {
				t.Fatal("no rows produced")
			}
			for _, r := range rows {
				if r.Report.Commits == 0 {
					t.Errorf("%s at %s committed nothing", r.Protocol, r.X)
				}
			}
			var sb strings.Builder
			bench.Print(&sb, e.Title, rows)
			if !strings.Contains(sb.String(), "txn/s") {
				t.Error("printed output missing throughput")
			}
		})
	}
}

func TestFind(t *testing.T) {
	if bench.Find("fig6") == nil {
		t.Fatal("fig6 not found")
	}
	if bench.Find("nonsense") != nil {
		t.Fatal("unexpected experiment found")
	}
}

// TestQuickSmoke runs one real experiment end to end at micro scale and
// checks the run → report conversion carries the full latency
// distribution. It stays enabled under -short so the race job still
// executes a genuine multi-worker benchmark run.
func TestQuickSmoke(t *testing.T) {
	s := tiny()
	s.TxnsPerWorker = 30
	e := bench.Find("fig6")
	rows := e.Run(s)
	if len(rows) == 0 {
		t.Fatal("no rows produced")
	}
	rep := bench.ToExperiment(e.ID, e.Title, time.Second, rows)
	if rep.ID != "fig6" || len(rep.Points) != len(rows) {
		t.Fatalf("conversion lost points: %d != %d", len(rep.Points), len(rows))
	}
	for _, p := range rep.Points {
		if p.Commits == 0 {
			t.Errorf("%s at %s committed nothing", p.Protocol, p.X)
		}
		if p.ThroughputTPS <= 0 {
			t.Errorf("%s at %s has no throughput", p.Protocol, p.X)
		}
		if p.LatencyP50 <= 0 || p.LatencyP90 < p.LatencyP50 || p.LatencyP95 < p.LatencyP90 ||
			p.LatencyP99 < p.LatencyP95 || p.LatencyP999 < p.LatencyP99 || p.LatencyMax < p.LatencyP999 {
			t.Errorf("%s at %s latency distribution broken: %+v", p.Protocol, p.X, p.Report)
		}
	}
}

// TestPartitionSweepSmoke runs the partition experiment at micro scale
// and checks the partition-specific telemetry flows end to end: every
// point carries a load time, the partitioned points carry per-partition
// access counts matching their partition count (the flat partitions=1
// point carries none — telemetry is off on the baseline-comparable
// layout), and the hash partitioner keeps the skew bounded even under
// theta=0.9 (hot Zipfian keys scatter across partitions).
func TestPartitionSweepSmoke(t *testing.T) {
	s := tiny()
	s.TxnsPerWorker = 30
	rows := bench.PartitionSweep(s)
	if len(rows) == 0 {
		t.Fatal("no rows produced")
	}
	byParts := map[string]int{
		"partitions=1 threads=4": 0,
		"partitions=2 threads=4": 2,
		"partitions=4 threads=4": 4,
		"partitions=8 threads=4": 8,
	}
	for _, r := range rows {
		if r.Report.Commits == 0 {
			t.Errorf("%s at %s committed nothing", r.Protocol, r.X)
		}
		if r.Report.LoadTime <= 0 {
			t.Errorf("%s at %s has no load time", r.Protocol, r.X)
		}
		want, ok := byParts[r.X]
		if !ok {
			t.Errorf("unexpected x value %q", r.X)
			continue
		}
		if got := len(r.Report.PartitionAccesses); got != want {
			t.Errorf("%s at %s: %d partition counters, want %d", r.Protocol, r.X, got, want)
		}
		if want > 1 && r.Report.PartitionSkew > float64(want)/2+1 {
			t.Errorf("%s at %s: partition skew %.2f implausibly high", r.Protocol, r.X, r.Report.PartitionSkew)
		}
	}
}

// TestDurabilitySweepSmoke runs the durability experiment at micro scale
// on real (temp-dir) files and asserts the mechanics the sweep exists to
// measure: every durable point actually fsyncs, the per-commit-fsync
// configuration pays one sync per record, and per-partition group commit
// cuts fsyncs per transaction well below it at every partition count —
// including the ≥2-partition points where each partition runs its own
// flusher. fsync=none must not sync at all.
func TestDurabilitySweepSmoke(t *testing.T) {
	s := tiny()
	s.TxnsPerWorker = 40
	rows := bench.DurabilitySweep(s)
	if len(rows) == 0 {
		t.Fatal("no rows produced")
	}
	type point struct{ syncsPerTxn float64 }
	byXProto := map[string]map[string]point{}
	for _, r := range rows {
		rep := r.Report
		if rep.Commits == 0 {
			t.Fatalf("%s at %s committed nothing", r.Protocol, r.X)
		}
		if rep.WALAppends == 0 || rep.WALBytes == 0 {
			t.Fatalf("%s at %s has no WAL telemetry: %+v", r.Protocol, r.X, rep)
		}
		switch r.Protocol {
		case "fsync=none":
			if rep.WALSyncs != 0 {
				t.Errorf("%s at %s synced %d times", r.Protocol, r.X, rep.WALSyncs)
			}
		case "fsync=commit", "fsync=group":
			if rep.WALSyncs == 0 || rep.WALSyncTime <= 0 {
				t.Errorf("%s at %s reports no fsyncs", r.Protocol, r.X)
			}
			// fsync=interval is deliberately unasserted: a micro run on a
			// fast machine can finish inside the interval window and
			// legitimately sync zero times before stats are read.
		}
		if byXProto[r.X] == nil {
			byXProto[r.X] = map[string]point{}
		}
		byXProto[r.X][r.Protocol] = point{syncsPerTxn: float64(rep.WALSyncs) / float64(rep.Commits)}
	}
	for x, protos := range byXProto {
		commit, okC := protos["fsync=commit"]
		group, okG := protos["fsync=group"]
		if !okC || !okG {
			t.Fatalf("%s: missing series: %+v", x, protos)
		}
		if commit.syncsPerTxn < 0.99 {
			t.Errorf("%s: per-commit fsync ran %.2f syncs/txn, want ~1", x, commit.syncsPerTxn)
		}
		if group.syncsPerTxn > 0.9*commit.syncsPerTxn {
			t.Errorf("%s: group commit did not amortize fsyncs: %.2f vs %.2f syncs/txn",
				x, group.syncsPerTxn, commit.syncsPerTxn)
		}
	}
}

// TestBambooBeatsWoundWaitOnHotspot asserts the paper's core claim at
// smoke scale, on the setup where the winner is decided by the protocol
// rather than by scheduler luck: the interactive single-hotspot ladder
// of the scaling experiment. With one RTT per operation, Wound-Wait
// holds the hotspot for the whole transaction while Bamboo retires it
// after the first write, so at 8 threads the expected gap is severalfold
// on any host — the stored-procedure variant of this comparison is a
// coin flip on few-core machines (both engines near-sequential, the
// margin pure noise) and cannot be gated on.
func TestBambooBeatsWoundWaitOnHotspot(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second hotspot comparison skipped in -short mode")
	}
	s := tiny()
	s.Threads = []int{1, 8} // multi-point ladder: honored by ScalingSweep
	s.Duration = 100 * time.Millisecond
	s.Repeat = 3
	rows := bench.ScalingSweep(s)
	var bb, ww float64
	for _, r := range rows {
		if r.X == "threads=8" {
			switch r.Protocol {
			case "BAMBOO":
				bb = r.Report.ThroughputTPS
			case "WOUND_WAIT":
				ww = r.Report.ThroughputTPS
			}
		}
	}
	if bb == 0 || ww == 0 {
		t.Fatalf("missing series: bb=%f ww=%f", bb, ww)
	}
	if bb < ww {
		t.Errorf("BAMBOO (%.0f tps) slower than WOUND_WAIT (%.0f tps) on its best-case workload", bb, ww)
	}
}
