// Package telemetry is the live observability layer: a registry that
// snapshots the counters the engine already maintains — transaction
// commits/aborts/upgrades/retires, wounds and cascades, per-partition
// accesses/conflicts/skew, WAL appends/batches/syncs/fsync time,
// checkpoint rounds and live log bytes, MVCC snapshot reads and pruned
// versions, and the commit-latency histogram — and serves them over an
// opt-in HTTP endpoint:
//
//	/metrics     Prometheus text exposition (see docs/METRICS.md)
//	/debug/vars  the same snapshot as JSON (expvar-style)
//	/healthz     liveness probe ("ok")
//
// The collection path is read-only atomic loads against stats.Live /
// stats.Global mirrors plus the already-synchronized WAL and checkpoint
// accessors, so a scrape never takes a lock a worker holds and never
// perturbs the zero-allocation hot path. Every series is a cumulative
// counter or a gauge; per-second rates are the scraper's to derive
// (docs/METRICS.md gives the PromQL).
//
// A Registry outlives any one DB: Attach points it at a run's counters,
// Detach (or attaching the next run's sources) ends that; scrapes between
// runs report bamboo_up 0. bamboo-bench uses exactly that shape — one
// process-level registry, re-attached per benchmark point.
package telemetry

import (
	"time"

	"bamboo/internal/stats"
	"bamboo/internal/txn"
	"bamboo/internal/wal"
)

// Sources names the counters one DB exposes. All fields are optional
// except Live; nil funcs report zeros. The registry only ever reads —
// Live and Global via atomic loads, WAL and Lifecycle via accessors that
// are themselves safe for concurrent use.
type Sources struct {
	// Protocol is the display name ("BAMBOO", "Wound-Wait", ...).
	Protocol string
	// Live is the workers' atomic counter mirror (stats.Collector.AttachLive).
	Live *stats.Live
	// Global carries the lock-manager and per-partition counters.
	Global *stats.Global
	// WAL returns the summed durability telemetry of the log devices.
	WAL func() wal.DeviceStats
	// Lifecycle returns checkpoint/truncation telemetry.
	Lifecycle func() LifecycleStats
}

// LifecycleStats is the storage-lifecycle slice of a snapshot (a
// telemetry-local mirror of core.CheckpointStats plus live log bytes,
// kept here so core can depend on telemetry without a cycle).
type LifecycleStats struct {
	Checkpoints    uint64
	CheckpointTime time.Duration
	Truncations    uint64
	TruncatedBytes int64
	LogLiveBytes   int64
}

// quantiles are the summary quantiles /metrics exports, with their label
// strings. Sorted ascending (AtomicHist.QuantilesInto requires it).
var (
	quantiles      = []float64{0.5, 0.9, 0.95, 0.99, 0.999}
	quantileLabels = []string{"0.5", "0.9", "0.95", "0.99", "0.999"}
)

// Snapshot is one point-in-time read of every exported counter, the
// payload of /debug/vars. Counters may advance between field loads; a
// snapshot is a consistent-enough view for operations, not a barrier.
type Snapshot struct {
	// Up reports whether a source is attached; every other field is zero
	// when it is not.
	Up            bool    `json:"up"`
	Protocol      string  `json:"protocol,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`

	Commits         uint64            `json:"commits"`
	Aborts          uint64            `json:"aborts"`
	AbortsBy        map[string]uint64 `json:"aborts_by,omitempty"`
	Upgrades        uint64            `json:"upgrades"`
	Retires         uint64            `json:"retires"`
	Wounds          uint64            `json:"wounds"`
	Cascades        uint64            `json:"cascades"`
	CascadeChainMax uint64            `json:"cascade_chain_max"`

	PartitionAccesses  []uint64 `json:"partition_accesses,omitempty"`
	PartitionConflicts []uint64 `json:"partition_conflicts,omitempty"`
	PartitionSkew      float64  `json:"partition_skew,omitempty"`

	WALAppends     uint64  `json:"wal_appends"`
	WALBatches     uint64  `json:"wal_batches"`
	WALBytes       uint64  `json:"wal_bytes"`
	WALSyncs       uint64  `json:"wal_syncs"`
	WALSyncSeconds float64 `json:"wal_sync_seconds"`

	Checkpoints       uint64  `json:"checkpoints"`
	CheckpointSeconds float64 `json:"checkpoint_seconds"`
	Truncations       uint64  `json:"truncations"`
	TruncatedBytes    int64   `json:"truncated_bytes"`
	LogLiveBytes      int64   `json:"log_live_bytes"`

	SnapshotReads   uint64 `json:"snapshot_reads"`
	VersionsPruned  uint64 `json:"versions_pruned"`
	VersionChainMax uint64 `json:"version_chain_max"`

	ImageCopies       uint64 `json:"image_copies"`
	ImagePoolRecycled uint64 `json:"image_pool_recycled"`

	LatencyCount            uint64             `json:"latency_count"`
	LatencySumSeconds       float64            `json:"latency_sum_seconds"`
	LatencyQuantilesSeconds map[string]float64 `json:"latency_quantiles_seconds,omitempty"`
}

// Snapshot reads every attached counter once. Allocates (maps, slices);
// meant for scrape handlers and tests, not the hot path.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{UptimeSeconds: r.now().Sub(r.start).Seconds()}
	src := r.src.Load()
	if src == nil || src.Live == nil {
		return s
	}
	s.Up = true
	s.Protocol = src.Protocol

	live := src.Live
	s.Commits = live.Commits.Load()
	s.Aborts = live.Aborts.Load()
	s.AbortsBy = make(map[string]uint64, len(live.AbortsBy))
	for c := range live.AbortsBy {
		if n := live.AbortsBy[c].Load(); n > 0 {
			s.AbortsBy[txn.AbortCause(c).String()] = n
		}
	}
	s.Upgrades = live.Upgrades.Load()
	s.Retires = live.Retires.Load()
	s.SnapshotReads = live.SnapshotReads.Load()
	s.VersionsPruned = live.VersionsPruned.Load()
	s.ImageCopies = live.ImageCopies.Load()
	s.ImagePoolRecycled = live.ImagePoolRecycled.Load()

	if g := src.Global; g != nil {
		s.Wounds = g.Wounds.Load()
		s.Cascades = g.Cascades.Load()
		s.CascadeChainMax = g.ChainMax.Load()
		s.VersionsPruned += g.VersionsPruned.Load()
		s.VersionChainMax = g.VersionChainMax.Load()
		s.PartitionAccesses = g.PartitionAccesses()
		s.PartitionConflicts = g.PartitionConflicts()
		s.PartitionSkew = stats.Skew(s.PartitionAccesses)
	}
	if src.WAL != nil {
		ws := src.WAL()
		s.WALAppends = ws.Appends
		s.WALBatches = ws.Batches
		s.WALBytes = ws.Bytes
		s.WALSyncs = ws.Syncs
		s.WALSyncSeconds = ws.SyncTime.Seconds()
	}
	if src.Lifecycle != nil {
		ls := src.Lifecycle()
		s.Checkpoints = ls.Checkpoints
		s.CheckpointSeconds = ls.CheckpointTime.Seconds()
		s.Truncations = ls.Truncations
		s.TruncatedBytes = ls.TruncatedBytes
		s.LogLiveBytes = ls.LogLiveBytes
	}

	var qv [8]time.Duration
	if n := live.Lat.QuantilesInto(quantiles, qv[:len(quantiles)]); n > 0 {
		s.LatencyCount = n
		s.LatencySumSeconds = time.Duration(live.Lat.Sum()).Seconds()
		s.LatencyQuantilesSeconds = make(map[string]float64, len(quantiles))
		for i, lbl := range quantileLabels {
			s.LatencyQuantilesSeconds[lbl] = qv[i].Seconds()
		}
	}
	return s
}
