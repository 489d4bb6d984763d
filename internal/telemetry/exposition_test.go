package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"bamboo/internal/stats"
)

var update = flag.Bool("update", false, "rewrite the exposition golden file")

// fixture is a report with every field set, so no omitempty tag hides a
// key of /debug/vars. The latency and breakdown values are whole
// nanoseconds per transaction, so the rendered seconds are exact.
var fixture = stats.Report{
	Protocol: "BAMBOO", Workers: 4,
	Commits: 1200, Aborts: 34, AbortRate: 34.0 / 1234,
	AbortsBy:       map[string]uint64{"wound": 20, "cascade": 10, "die": 4},
	ThroughputTPS:  1200.0 / 90,
	PerTxnLockWait: 1500, PerTxnCommitWait: 500, PerTxnAbort: 250, PerTxnUseful: 6000,
	Wounds: 20, Cascades: 10, AvgChain: 2.5, MaxChain: 3,
	Upgrades: 77, Retires: 410,
	SnapshotReads: 5000, VersionsPruned: 50, VersionChainMax: 4,
	ImageCopies: 12, ImagePoolRecycled: 880,
	PartitionAccesses: []uint64{30, 10}, PartitionConflicts: []uint64{7, 0}, PartitionSkew: 1.5,
	LoadTime:   2 * time.Second,
	WALAppends: 900, WALBytes: 65536, WALSyncs: 118, WALSyncTime: 250 * time.Millisecond,
	CheckpointCount: 6, CheckpointTime: 30 * time.Millisecond, Truncations: 2, TruncatedBytes: 4096, LogBytesLive: 1024,
	LatencyMean: 8000, LatencyP50: 7000, LatencyP90: 9000, LatencyP95: 11000, LatencyP99: 20000, LatencyP999: 50000,
	LatencyMax: 120000,
	Elapsed:    90 * time.Second,
}

// fixedRegistry serves the fixture with a pinned clock, so the rendered
// exposition is byte-for-byte deterministic.
func fixedRegistry() *Registry {
	r := NewRegistry()
	at := time.Unix(1700000000, 0)
	r.start = at
	r.now = func() time.Time { return at.Add(90 * time.Second) }
	r.Attach(&Sources{Report: func() stats.Report { return fixture }})
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
	old, next := &Sources{}, &Sources{}
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

	// /debug/vars is the report under its own JSON tags (the keys of a
	// bamboo-bench -json point), plus up and uptime_seconds.
	_, body = get("/debug/vars")
	var rep stats.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v\n%s", err, body)
	}
	if !reflect.DeepEqual(rep, fixture) {
		t.Fatalf("/debug/vars report mismatch:\n got %+v\nwant %+v", rep, fixture)
	}
	var doc map[string]any
	json.Unmarshal(body, &doc)
	want := []string{"up", "uptime_seconds"}
	rt := reflect.TypeOf(stats.Report{})
	for i := 0; i < rt.NumField(); i++ {
		want = append(want, strings.Split(rt.Field(i).Tag.Get("json"), ",")[0])
	}
	var got []string
	for k := range doc {
		got = append(got, k)
	}
	sort.Strings(want)
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("/debug/vars keys:\n got %q\nwant %q", got, want)
	}
	if doc["up"] != true || doc["uptime_seconds"] != float64(90) {
		t.Errorf("/debug/vars up = %v, uptime_seconds = %v", doc["up"], doc["uptime_seconds"])
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
// that print it: the bench report (stats.Summarize), /debug/vars and
// /metrics. The counts are not a power of two apart — at 3/3/1, max*n/sum
// and max/(sum/n) differ in the last bits, which is how two copies of the
// formula once disagreed.
func TestPartitionSkewAgrees(t *testing.T) {
	g := &stats.Global{}
	g.InitPartitions(3)
	for p, n := range []int{3, 3, 1} {
		for i := 0; i < n; i++ {
			g.RecordPartAccess(p)
		}
	}
	r := NewRegistry()
	r.Attach(&Sources{Report: func() stats.Report { return stats.Summarize("BAMBOO", time.Second, nil, g) }})

	want := stats.Summarize("BAMBOO", time.Second, nil, g).PartitionSkew
	if got := r.vars().PartitionSkew; got != want {
		t.Errorf("/debug/vars partition_skew = %v, report says %v", got, want)
	}
	var buf bytes.Buffer
	r.WriteMetrics(&buf)
	line := "bamboo_partition_skew " + fmtFloat(want) + "\n"
	if !strings.Contains(buf.String(), line) {
		t.Errorf("/metrics does not print %q", line)
	}
}

// TestExpositionWellFormed checks the rendered fixture against the text
// format's structural rules: each family is one # HELP line, then one
// # TYPE line, then its samples; family names are unique; every sample
// belongs to the family above it (a summary's also as _sum and _count);
// and a name ends in _total exactly when the family is a counter.
func TestExpositionWellFormed(t *testing.T) {
	var buf bytes.Buffer
	fixedRegistry().WriteMetrics(&buf)
	seen := map[string]bool{}
	var fam, typ string
	helped := false
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) >= 3 && f[0] == "#" && f[1] == "HELP":
			if helped {
				t.Errorf("%s: # HELP without a # TYPE", fam)
			}
			if seen[f[2]] {
				t.Errorf("%s: family declared twice", f[2])
			}
			fam, typ, helped = f[2], "", true
			seen[fam] = true
		case len(f) == 4 && f[0] == "#" && f[1] == "TYPE":
			if !helped || f[2] != fam {
				t.Errorf("%s: # TYPE not directly after its # HELP", f[2])
			}
			typ, helped = f[3], false
			if strings.HasSuffix(fam, "_total") != (typ == "counter") {
				t.Errorf("%s: type %s (a name ends in _total exactly when it is a counter)", fam, typ)
			}
		default:
			name := line[:strings.IndexAny(line, "{ ")]
			ok := typ != "" && (name == fam || typ == "summary" && (name == fam+"_sum" || name == fam+"_count"))
			if !ok {
				t.Errorf("sample %q outside its family (current family %s)", line, fam)
			}
		}
	}
}
