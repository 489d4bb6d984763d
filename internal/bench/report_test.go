package bench_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"bamboo/internal/bench"
	"bamboo/internal/stats"
	"bamboo/internal/txn"
)

// sample builds a two-experiment document with realistic values.
func sample() *bench.File {
	f := bench.NewFile(bench.Scale{Threads: []int{4, 8}, TxnsPerWorker: 300, Rows: 20000, RTT: 20 * time.Microsecond})
	c := &stats.Collector{}
	for i := 0; i < 1000; i++ {
		c.RecordCommit(time.Duration(i)*time.Microsecond, time.Microsecond, 0)
	}
	c.RecordAbort(txn.CauseWound, time.Millisecond, 0, 0)
	rep := stats.Summarize("BAMBOO", time.Second, []*stats.Collector{c}, nil)
	f.Experiments = append(f.Experiments, bench.Experiment{
		ID: "fig6", Title: "Fig 6: YCSB vs threads", ElapsedNS: int64(3 * time.Second),
		Points: []bench.Point{
			{X: "threads=4", Report: rep},
			{X: "threads=8", Report: stats.Report{Protocol: "WOUND_WAIT", Workers: 8,
				Commits: 900, Aborts: 100, AbortRate: 0.1, ThroughputTPS: 900,
				LatencyMean: 1000, LatencyP50: 800, LatencyP90: 1500, LatencyP95: 1800,
				LatencyP99: 2500, LatencyP999: 4000, LatencyMax: 9000}},
		},
	})
	f.Experiments = append(f.Experiments, bench.Experiment{
		ID: "fig9", Title: "Fig 9: TPC-C vs threads",
		Points: []bench.Point{
			{X: "threads=4", Report: stats.Report{Protocol: "BAMBOO", Commits: 5000,
				ThroughputTPS: 5000, LatencyP50: 700, LatencyP99: 2000}},
		},
	})
	return f
}

// documentKeys is the key set of a schema-version-3 document, as dotted
// paths (array elements share their parent's path). CI's smoke-bench
// greps and the tables of EXPERIMENTS.md name these keys: renaming a tag
// on stats.Report or a struct here must show up as a diff of this list
// and a SchemaVersion bump.
var documentKeys = []string{
	"created_at",
	"experiments",
	"experiments.elapsed_ns",
	"experiments.id",
	"experiments.points",
	"experiments.points.abort_ns",
	"experiments.points.abort_rate",
	"experiments.points.aborts",
	"experiments.points.aborts_by",
	"experiments.points.aborts_by.wound",
	"experiments.points.avg_chain",
	"experiments.points.cascades",
	"experiments.points.checkpoint_ns",
	"experiments.points.checkpoints",
	"experiments.points.commit_wait_ns",
	"experiments.points.commits",
	"experiments.points.elapsed_ns",
	"experiments.points.fsync_ns",
	"experiments.points.image_copies",
	"experiments.points.image_pool_recycled",
	"experiments.points.latency_max_ns",
	"experiments.points.latency_mean_ns",
	"experiments.points.latency_p50_ns",
	"experiments.points.latency_p90_ns",
	"experiments.points.latency_p95_ns",
	"experiments.points.latency_p999_ns",
	"experiments.points.latency_p99_ns",
	"experiments.points.load_ns",
	"experiments.points.lock_wait_ns",
	"experiments.points.log_bytes_live",
	"experiments.points.max_chain",
	"experiments.points.partition_accesses",
	"experiments.points.partition_conflicts",
	"experiments.points.partition_skew",
	"experiments.points.protocol",
	"experiments.points.retires",
	"experiments.points.snapshot_reads",
	"experiments.points.throughput_tps",
	"experiments.points.truncated_bytes",
	"experiments.points.truncations",
	"experiments.points.upgrades",
	"experiments.points.useful_ns",
	"experiments.points.version_chain_max",
	"experiments.points.versions_pruned",
	"experiments.points.wal_appends",
	"experiments.points.wal_bytes",
	"experiments.points.wal_syncs",
	"experiments.points.workers",
	"experiments.points.wounds",
	"experiments.points.x",
	"experiments.title",
	"git_sha",
	"go_version",
	"goarch",
	"gomaxprocs",
	"goos",
	"num_cpu",
	"scale",
	"scale.duration_ns",
	"scale.partitions",
	"scale.readonly_frac",
	"scale.rows",
	"scale.rtt_ns",
	"scale.seed",
	"scale.threads",
	"scale.txns_per_worker",
	"schema_version",
}

// populate sets every marshalled field of the struct v points at to a
// nonzero value, so no omitempty tag can hide a key and a field added to
// stats.Report later appears in the document without this test being
// told about it.
func populate(t *testing.T, v any) {
	t.Helper()
	rv := reflect.ValueOf(v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if rv.Type().Field(i).Tag.Get("json") == "-" {
			continue
		}
		f := rv.Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString("x")
		case reflect.Int, reflect.Int64:
			f.SetInt(1)
		case reflect.Uint64:
			f.SetUint(1)
		case reflect.Float64:
			f.SetFloat(1.5)
		case reflect.Slice:
			f.Set(reflect.Append(f, reflect.Zero(f.Type().Elem())))
		case reflect.Map:
			f.Set(reflect.ValueOf(map[string]uint64{"wound": 1}))
		default:
			t.Fatalf("populate: field %s has unhandled kind %s", rv.Type().Field(i).Name, f.Kind())
		}
	}
}

// keyPaths collects the dotted key paths of a decoded JSON value.
func keyPaths(prefix string, v any, into map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, child := range v {
			path := k
			if prefix != "" {
				path = prefix + "." + k
			}
			into[path] = true
			keyPaths(path, child, into)
		}
	case []any:
		for _, child := range v {
			keyPaths(prefix, child, into)
		}
	}
}

// TestReportDocumentKeys pins the JSON document's key set: one fully
// populated point, saved and decoded generically, must carry exactly
// documentKeys — and the environment stamp and schema version with it.
func TestReportDocumentKeys(t *testing.T) {
	var rep stats.Report
	populate(t, &rep)
	var sc bench.Scale
	populate(t, &sc)
	f := bench.NewFile(sc)
	f.Experiments = []bench.Experiment{{ID: "fig6", Title: "t", ElapsedNS: 1,
		Points: []bench.Point{{X: "threads=4", Report: rep}}}}

	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := bench.Save(path, f); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("saved document is not JSON: %v", err)
	}
	seen := map[string]bool{}
	keyPaths("", doc, seen)
	var got []string
	for k := range seen {
		got = append(got, k)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, documentKeys) {
		t.Errorf("document key set changed (bump SchemaVersion and update documentKeys):\n got %q\nwant %q",
			got, documentKeys)
	}
	if v := doc["schema_version"]; v != float64(3) {
		t.Errorf("schema_version = %v, want 3", v)
	}
	for _, k := range []string{"created_at", "git_sha", "go_version", "goos", "goarch"} {
		if s, _ := doc[k].(string); s == "" {
			t.Errorf("environment field %s is empty", k)
		}
	}
	if n, _ := doc["gomaxprocs"].(float64); n < 1 {
		t.Errorf("gomaxprocs = %v", doc["gomaxprocs"])
	}
}

func TestWriteTable(t *testing.T) {
	var buf bytes.Buffer
	for _, e := range sample().Experiments {
		bench.WriteTable(&buf, e)
	}
	out := buf.String()
	for _, want := range []string{"== Fig 6", "-- threads=4", "-- threads=8", "BAMBOO", "WOUND_WAIT", "txn/s", "p50=", "p99="} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}
