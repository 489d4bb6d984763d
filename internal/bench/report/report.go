// Package report defines the machine-readable result schema the
// benchmark pipeline emits and the tools that consume it. It is the
// boundary between *running* experiments (internal/bench) and
// *reporting* them: runners produce stats.Report values, this package
// turns them into a versioned JSON document (plus CSV and the
// human-readable table), and cmd/bench-diff compares two such documents
// to gate regressions in CI.
//
// The schema is versioned so stored trajectory artifacts (BENCH_*.json)
// stay parseable as the pipeline evolves: readers accept only matching
// SchemaVersion values and fail loudly otherwise.
package report

import (
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"bamboo/internal/stats"
)

// SchemaVersion identifies the JSON layout. Bump it on any
// backwards-incompatible change to the structs below.
const SchemaVersion = 1

// File is the top-level result document: one benchmark invocation,
// covering one or more experiments at a single scale, annotated with
// enough environment detail to interpret absolute numbers later.
type File struct {
	SchemaVersion int    `json:"schema_version"`
	CreatedAt     string `json:"created_at"` // RFC 3339, UTC
	GitSHA        string `json:"git_sha"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	NumCPU        int    `json:"num_cpu"`

	Scale       Scale        `json:"scale"`
	Experiments []Experiment `json:"experiments"`
}

// Scale mirrors bench.Scale in JSON-friendly units (nanoseconds for
// durations). It is duplicated here rather than imported so the schema
// has no dependency on runner internals.
type Scale struct {
	Threads       []int `json:"threads"`
	TxnsPerWorker int   `json:"txns_per_worker"`
	DurationNS    int64 `json:"duration_ns"`
	Rows          int   `json:"rows"`
	RTTNS         int64 `json:"rtt_ns"`
	// Partitions is the storage partition count (0/absent = 1, the flat
	// pre-partitioning layout). Additive since the field's introduction,
	// so schema-version-1 documents without it stay parseable.
	Partitions int `json:"partitions,omitempty"`
	// ReadOnlyFrac is the pinned read-only-transaction fraction of the
	// readmvcc experiment (0/absent = the experiment's built-in ladder).
	// Additive + omitempty like Partitions.
	ReadOnlyFrac float64 `json:"readonly_frac,omitempty"`
	// Seed is the fixed workload RNG seed (-seed; 0/absent = the
	// workloads' built-in per-worker seeding). Recorded so A/B documents
	// state whether their key streams were identical. Additive + omitempty.
	Seed int64 `json:"seed,omitempty"`
}

// Experiment is one runner's full series.
type Experiment struct {
	ID        string  `json:"id"`
	Title     string  `json:"title"`
	ElapsedNS int64   `json:"elapsed_ns"` // wall time of the whole run
	Points    []Point `json:"points"`
}

// Point is one protocol at one x-axis value — the unit bench-diff
// compares across runs.
type Point struct {
	X        string `json:"x"`
	Protocol string `json:"protocol"`
	Workers  int    `json:"workers"`

	Commits       uint64            `json:"commits"`
	Aborts        uint64            `json:"aborts"`
	AbortRate     float64           `json:"abort_rate"`
	AbortsBy      map[string]uint64 `json:"aborts_by,omitempty"`
	ThroughputTPS float64           `json:"throughput_tps"`

	Latency   Latency   `json:"latency_ns"`
	Breakdown Breakdown `json:"breakdown_ns"`

	Wounds   uint64  `json:"wounds,omitempty"`
	Cascades uint64  `json:"cascades,omitempty"`
	AvgChain float64 `json:"avg_chain,omitempty"`
	MaxChain uint64  `json:"max_chain,omitempty"`

	// Lock-upgrade telemetry (additive + omitempty, absent in documents
	// predating the counters): successful SH→EX promotions and retires
	// (writes released early, Bamboo's core mechanism).
	Upgrades uint64 `json:"upgrades,omitempty"`
	Retires  uint64 `json:"retires,omitempty"`

	// LoadNS is the workload load wall time for the point's fresh DB —
	// the number the partition sweep's parallel-loader claim is gated on.
	// PartitionAccesses/Conflicts and PartitionSkew (hottest partition's
	// share relative to balanced, 1.0 = balanced) carry the per-partition
	// telemetry. All additive + omitempty: absent in pre-partitioning
	// schema-version-1 documents, which remain comparable.
	LoadNS             int64    `json:"load_ns,omitempty"`
	PartitionAccesses  []uint64 `json:"partition_accesses,omitempty"`
	PartitionConflicts []uint64 `json:"partition_conflicts,omitempty"`
	PartitionSkew      float64  `json:"partition_skew,omitempty"`

	// WAL durability telemetry for the point's DB (additive + omitempty,
	// absent in pre-durability documents): records appended, device write
	// operations (what group commit amortizes), payload bytes, and the
	// fsync count and total nanoseconds a real device charged. Fsyncs/
	// commit — the quantity the durability experiment sweeps — is
	// WALSyncs over Commits.
	WALAppends int64 `json:"wal_appends,omitempty"`
	WALBatches int64 `json:"wal_batches,omitempty"`
	WALBytes   int64 `json:"wal_bytes,omitempty"`
	WALSyncs   int64 `json:"wal_syncs,omitempty"`
	FsyncNS    int64 `json:"fsync_ns,omitempty"`

	// Storage-lifecycle telemetry (additive + omitempty, absent when
	// checkpoints are off): fuzzy snapshots written, their cumulative
	// capture+write nanoseconds, and the live WAL bytes left on disk at
	// the end of the run — what the truncation policy bounds.
	Checkpoints  int64 `json:"checkpoints,omitempty"`
	CheckpointNS int64 `json:"checkpoint_ns,omitempty"`
	LogBytesLive int64 `json:"log_bytes_live,omitempty"`

	// MVCC snapshot-read telemetry (additive + omitempty, absent on
	// non-MVCC runs): row reads served lock-free at a snapshot, version
	// nodes reclaimed (install-time reuse + background sweeps), and the
	// longest version chain the pruner observed.
	SnapshotReads   uint64 `json:"snapshot_reads,omitempty"`
	VersionsPruned  uint64 `json:"versions_pruned,omitempty"`
	VersionChainMax uint64 `json:"version_chain_max,omitempty"`

	// Row-image buffer telemetry (additive + omitempty, absent in
	// documents predating the shared-image protocol): fresh image
	// allocations on the write path, and write copies served from
	// recycled spare buffers instead.
	ImageCopies       uint64 `json:"image_copies,omitempty"`
	ImagePoolRecycled uint64 `json:"image_pool_recycled,omitempty"`

	ElapsedNS int64 `json:"elapsed_ns"`
}

// Latency is the commit-latency distribution in nanoseconds.
type Latency struct {
	Mean int64 `json:"mean"`
	P50  int64 `json:"p50"`
	P90  int64 `json:"p90"`
	P95  int64 `json:"p95"`
	P99  int64 `json:"p99"`
	P999 int64 `json:"p999"`
	Max  int64 `json:"max"`
}

// Breakdown is the amortized per-committed-transaction runtime split
// (the paper's stacked-bar figures), in nanoseconds.
type Breakdown struct {
	LockWait   int64 `json:"lock_wait"`
	Abort      int64 `json:"abort"`
	CommitWait int64 `json:"commit_wait"`
	Useful     int64 `json:"useful"`
}

// NewFile returns a File stamped with the current environment.
func NewFile(s Scale) *File {
	return &File{
		SchemaVersion: SchemaVersion,
		CreatedAt:     time.Now().UTC().Format(time.RFC3339),
		GitSHA:        gitSHA(),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		Scale:         s,
	}
}

// gitSHA resolves the commit the binary was built from: an explicit
// BAMBOO_GIT_SHA (set by CI) wins, then the VCS stamp Go embeds in
// binaries built inside a git checkout.
func gitSHA() string {
	if sha := os.Getenv("BAMBOO_GIT_SHA"); sha != "" {
		return sha
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// PointFrom flattens a stats.Report into the schema.
func PointFrom(x string, r stats.Report) Point {
	return Point{
		X:             x,
		Protocol:      r.Protocol,
		Workers:       r.Workers,
		Commits:       r.Commits,
		Aborts:        r.Aborts,
		AbortRate:     r.AbortRate,
		AbortsBy:      r.AbortsBy,
		ThroughputTPS: r.ThroughputTPS,
		Latency: Latency{
			Mean: int64(r.LatencyMean),
			P50:  int64(r.LatencyP50),
			P90:  int64(r.LatencyP90),
			P95:  int64(r.LatencyP95),
			P99:  int64(r.LatencyP99),
			P999: int64(r.LatencyP999),
			Max:  int64(r.LatencyMax),
		},
		Breakdown: Breakdown{
			LockWait:   int64(r.PerTxnLockWait),
			Abort:      int64(r.PerTxnAbort),
			CommitWait: int64(r.PerTxnCommitWait),
			Useful:     int64(r.PerTxnUseful),
		},
		Wounds:             r.Wounds,
		Cascades:           r.Cascades,
		AvgChain:           r.AvgChain,
		MaxChain:           r.MaxChain,
		Upgrades:           r.Upgrades,
		Retires:            r.Retires,
		LoadNS:             int64(r.LoadTime),
		PartitionAccesses:  r.PartitionAccesses,
		PartitionConflicts: r.PartitionConflicts,
		PartitionSkew:      r.PartitionSkew,
		WALAppends:         int64(r.WALAppends),
		WALBatches:         int64(r.WALBatches),
		WALBytes:           int64(r.WALBytes),
		WALSyncs:           int64(r.WALSyncs),
		FsyncNS:            int64(r.WALSyncTime),
		Checkpoints:        int64(r.CheckpointCount),
		CheckpointNS:       int64(r.CheckpointTime),
		LogBytesLive:       r.LogBytesLive,
		SnapshotReads:      r.SnapshotReads,
		VersionsPruned:     r.VersionsPruned,
		VersionChainMax:    r.VersionChainMax,
		ImageCopies:        r.ImageCopies,
		ImagePoolRecycled:  r.ImagePoolRecycled,
		ElapsedNS:          int64(r.Elapsed),
	}
}
