package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"bamboo/internal/stats"
	"bamboo/internal/wal"
)

var update = flag.Bool("update", false, "rewrite the exposition golden file")

// fixedRegistry builds a registry over hand-set counters so the rendered
// exposition is byte-for-byte deterministic: the clock is pinned, and the
// latency observations (50ns) land in an identity bucket of the histogram
// (values below 64ns map to themselves), so quantiles are exact.
func fixedRegistry() *Registry {
	r := NewRegistry()
	at := time.Unix(1700000000, 0)
	r.start = at
	r.now = func() time.Time { return at.Add(90 * time.Second) }

	live := &stats.Live{}
	live.Commits.Store(1200)
	live.Aborts.Store(34)
	live.AbortsBy[1].Store(20) // wound
	live.AbortsBy[2].Store(10) // cascade
	live.AbortsBy[3].Store(4)  // die
	live.Upgrades.Store(77)
	live.Retires.Store(410)
	live.SnapshotReads.Store(5000)
	live.VersionsPruned.Store(42)
	for i := 0; i < 10; i++ {
		live.Lat.Record(50 * time.Nanosecond)
	}

	g := &stats.Global{}
	g.Wounds.Store(20)
	g.Cascades.Store(10)
	g.ChainMax.Store(3)
	g.VersionsPruned.Store(8)
	g.VersionChainMax.Store(4)
	g.InitPartitions(2)
	for i := 0; i < 30; i++ {
		g.RecordPartAccess(0)
	}
	for i := 0; i < 10; i++ {
		g.RecordPartAccess(1)
	}
	for i := 0; i < 7; i++ {
		g.RecordPartConflict(0)
	}

	r.Attach(&Sources{
		Protocol: "BAMBOO",
		Live:     live,
		Global:   g,
		WAL: func() wal.DeviceStats {
			return wal.DeviceStats{
				Appends: 900, Batches: 120, Bytes: 65536, Syncs: 118,
				SyncTime: 250 * time.Millisecond,
			}
		},
		Lifecycle: func() LifecycleStats {
			return LifecycleStats{
				Checkpoints:    6,
				CheckpointTime: 30 * time.Millisecond,
				Truncations:    2,
				TruncatedBytes: 4096,
				LogLiveBytes:   1024,
			}
		},
	})
	return r
}

// TestExpositionGolden pins the Prometheus text exposition byte for byte.
// Regenerate with: go test ./internal/telemetry -run Golden -update
func TestExpositionGolden(t *testing.T) {
	r := fixedRegistry()
	var buf bytes.Buffer
	r.WriteMetrics(&buf)

	const golden = "testdata/metrics.golden"
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition differs from %s (re-run with -update if the change is intended)\n--- got ---\n%s",
			golden, buf.String())
	}
}

// TestExpositionDetached pins the empty-registry rendering: bamboo_up 0,
// uptime, and nothing else a dashboard could mistake for a live DB.
func TestExpositionDetached(t *testing.T) {
	r := fixedRegistry()
	src := r.src.Load()
	r.Detach(src)
	var buf bytes.Buffer
	r.WriteMetrics(&buf)
	out := buf.String()
	if !strings.Contains(out, "bamboo_up 0\n") {
		t.Fatalf("detached registry should report bamboo_up 0:\n%s", out)
	}
	if strings.Contains(out, "bamboo_txn_commits_total") {
		t.Fatalf("detached registry should not report counters:\n%s", out)
	}
}

// TestDetachIsConditional: detaching a stale source must not clear a
// newer one (the bench harness closes point N's DB after point N+1
// attached).
func TestDetachIsConditional(t *testing.T) {
	r := NewRegistry()
	old := &Sources{Live: &stats.Live{}}
	next := &Sources{Live: &stats.Live{}}
	r.Attach(old)
	r.Attach(next)
	r.Detach(old)
	if r.src.Load() != next {
		t.Fatal("Detach(old) cleared the newer source")
	}
	r.Detach(next)
	if r.src.Load() != nil {
		t.Fatal("Detach(next) did not clear the current source")
	}
}

// TestEndpoints drives the HTTP mux: /metrics content type and payload,
// /debug/vars as decodable JSON matching the counters, /healthz.
func TestEndpoints(t *testing.T) {
	r := fixedRegistry()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	get := func(path string) (*http.Response, []byte) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	resp, body := get("/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	if !bytes.Contains(body, []byte("bamboo_txn_commits_total 1200")) {
		t.Fatalf("/metrics missing commit counter:\n%s", body)
	}

	_, body = get("/debug/vars")
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v\n%s", err, body)
	}
	if !snap.Up || snap.Commits != 1200 || snap.Protocol != "BAMBOO" {
		t.Fatalf("/debug/vars snapshot mismatch: %+v", snap)
	}
	if snap.AbortsBy["wound"] != 20 {
		t.Fatalf("aborts_by[wound] = %d, want 20", snap.AbortsBy["wound"])
	}
	if len(snap.PartitionConflicts) != 2 || snap.PartitionConflicts[0] != 7 {
		t.Fatalf("partition conflicts = %v", snap.PartitionConflicts)
	}

	_, body = get("/healthz")
	if string(body) != "ok\n" {
		t.Fatalf("/healthz = %q", body)
	}
}

// TestServeBindsAndCloses exercises the real listener path: Serve on a
// free port, scrape over TCP, Close, and confirm the port is released.
func TestServeBindsAndCloses(t *testing.T) {
	r := fixedRegistry()
	addr, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Addr(); got != addr {
		t.Fatalf("Addr() = %q, want %q", got, addr)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, err := r.Serve("127.0.0.1:0"); err == nil {
		t.Fatal("second Serve should fail")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if r.Addr() != "" {
		t.Fatal("Addr() nonempty after Close")
	}
}

// TestMetricSetMatchesDocs fails when the exposition and its reference
// drift apart: every series in the golden file must be named in
// docs/METRICS.md, and every bamboo_* name there must be a series in the
// golden file.
func TestMetricSetMatchesDocs(t *testing.T) {
	golden, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	exposed := map[string]bool{}
	for _, line := range strings.Split(string(golden), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		exposed[line[:strings.IndexAny(line, "{ ")]] = true
	}
	doc, err := os.ReadFile("../../docs/METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, name := range regexp.MustCompile(`bamboo_[a-z0-9_]+`).FindAllString(string(doc), -1) {
		documented[name] = true
	}
	for name := range exposed {
		if !documented[name] {
			t.Errorf("%s is exposed (metrics.golden) but not in docs/METRICS.md", name)
		}
	}
	for name := range documented {
		if !exposed[name] {
			t.Errorf("%s is in docs/METRICS.md but not exposed (metrics.golden)", name)
		}
	}
}

// TestPartitionSkewAgrees pins one skew value across the three surfaces
// that print it: the bench report (stats.Summarize), /debug/vars
// (Snapshot) and /metrics. The counts are not a power of two apart — at
// 3/3/1, max*n/sum and max/(sum/n) differ in the last bits, which is how
// two copies of the formula once disagreed.
func TestPartitionSkewAgrees(t *testing.T) {
	g := &stats.Global{}
	g.InitPartitions(3)
	for p, n := range []int{3, 3, 1} {
		for i := 0; i < n; i++ {
			g.RecordPartAccess(p)
		}
	}
	r := NewRegistry()
	r.Attach(&Sources{Protocol: "BAMBOO", Live: &stats.Live{}, Global: g})

	want := stats.Summarize("BAMBOO", time.Second, nil, g).PartitionSkew
	if got := r.Snapshot().PartitionSkew; got != want {
		t.Errorf("/debug/vars partition_skew = %v, report says %v", got, want)
	}
	var buf bytes.Buffer
	r.WriteMetrics(&buf)
	line := "bamboo_partition_skew " + fmtFloat(want) + "\n"
	if !strings.Contains(buf.String(), line) {
		t.Errorf("/metrics does not print %q", line)
	}
}
