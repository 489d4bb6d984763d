// Package stats collects the per-transaction metrics the paper reports:
// throughput, abort rates by cause, the amortized runtime breakdown of the
// "runtime analysis" figures (lock wait / abort / commit wait / useful
// work), and abort-chain lengths (§4.2).
//
// The breakdown's four shares, as the executors feed them:
//
//   - lock wait: time a request spent blocked — queued behind a
//     conflicting holder, or waiting for an upgrade to clear. It is
//     measured where the request blocks (lock.Manager hands it back on
//     the Request; IC3 times its own waits), so a transaction that
//     meets nobody reports exactly zero. The CPU an uncontended acquire
//     or release costs is not waiting; it is part of the execution time
//     below.
//   - commit wait: time between the end of the body and the commit point
//     spent waiting for dependencies (Bamboo's commit semaphore, IC3's
//     dependency drain); Silo's validation is the attempt's own work.
//   - abort: execution time of attempts that aborted.
//   - useful: execution time of attempts that committed — everything the
//     body did that was not blocked, lock-table work included.
//
// Collection is per-worker and contention-free; Merge folds workers
// together at the end of a run. Counters recorded where no worker
// collector is in scope (the lock manager's wounds and cascades, the
// per-partition access/conflict counters, the background pruner) live in
// Global and are atomic. For live scraping during a run, AttachLive gives
// a collector an atomic mirror (Live, loaded back into a Collector per
// scrape) so the end-of-run path stays plain-field and a scraper never
// reads a non-atomic counter.
package stats

import (
	"sync/atomic"
	"time"

	"bamboo/internal/txn"
)

// Collector accumulates metrics for one worker. It is not safe for
// concurrent use; give each worker its own and Merge at the end.
type Collector struct {
	Commits uint64
	Aborts  uint64
	// AbortsBy counts aborted attempts by cause.
	AbortsBy [6]uint64

	// Time breakdown, summed over all attempts (committed and aborted).
	LockWait   time.Duration // blocked on locks (see the package comment)
	CommitWait time.Duration // waiting on the commit semaphore / validation
	AbortTime  time.Duration // execution time of attempts that aborted
	UsefulTime time.Duration // execution time of attempts that committed
	Elapsed    time.Duration // wall-clock span of the worker's run

	// Lat holds the latency of every committed transaction in a
	// fixed-bucket log-linear histogram (bounded memory, no sampling).
	Lat Hist

	// Counts holds the per-worker event counters, indexed by Counter.
	Counts [numCounters]uint64

	// Live, when non-nil (AttachLive), receives an atomic mirror of
	// every record so a telemetry scraper can read the counters mid-run.
	// Nil on plain bench runs: the hot path then pays only a predictable
	// nil check per record.
	Live *Live
}

// Counter names a per-worker event counter: a slot of Collector.Counts and
// Live.Counts, summarized into the Report field of the same name.
type Counter int

const (
	// Upgrades counts successful SH→EX promotions.
	Upgrades Counter = iota
	// Retires counts lock retires (writes made visible before commit).
	Retires
	// SnapshotReads counts row reads served by the MVCC snapshot path
	// (zero lock acquisitions).
	SnapshotReads
	// VersionsPruned counts version nodes this worker reclaimed at install
	// time (the background pruner's reclaims live in Global).
	VersionsPruned
	// ImageCopies counts fresh row-image buffer allocations on the write
	// path (the GC-visible quantity the shared-image protocol eliminates).
	ImageCopies
	// ImagePoolRecycled counts write copies served from a recycled spare
	// buffer instead (a superseded committed image captured at release, or
	// a version-chain node displaced at install).
	ImagePoolRecycled
	numCounters
)

// Global holds the counters that are recorded from inside the shared lock
// manager — wounds, cascading-abort events and chain lengths — where no
// per-worker collector is in scope, plus the per-partition access and
// conflict counters the partition-aware executor feeds. All operations are
// atomic.
type Global struct {
	Wounds   atomic.Uint64
	Cascades atomic.Uint64
	ChainSum atomic.Uint64
	ChainMax atomic.Uint64

	// MVCC version telemetry recorded by the background pruner (which has
	// no per-worker collector): nodes reclaimed by sweeps and the longest
	// version chain observed.
	VersionsPruned  atomic.Uint64
	VersionChainMax atomic.Uint64

	// parts is sized once at DB construction (InitPartitions) and never
	// resized, so the hot-path Record calls are a bounds check and an
	// atomic add — zero allocations.
	parts []PartitionCounter
}

// PartitionCounter counts one partition's row accesses and conflicts. The
// padding keeps neighbouring partitions' counters off one cacheline so
// workers hitting disjoint partitions do not false-share.
type PartitionCounter struct {
	Accesses  atomic.Uint64
	Conflicts atomic.Uint64
	_         [48]byte
}

// InitPartitions sizes the per-partition counters; called once before any
// Record. n < 1 leaves partition telemetry disabled.
func (g *Global) InitPartitions(n int) {
	if n > 0 {
		g.parts = make([]PartitionCounter, n)
	}
}

// RecordPartAccess counts one row access against partition pid.
func (g *Global) RecordPartAccess(pid int) {
	if pid >= 0 && pid < len(g.parts) {
		g.parts[pid].Accesses.Add(1)
	}
}

// RecordPartConflict counts one conflicted (aborted or upgrade-failed)
// access against partition pid.
func (g *Global) RecordPartConflict(pid int) {
	if pid >= 0 && pid < len(g.parts) {
		g.parts[pid].Conflicts.Add(1)
	}
}

// PartitionAccesses returns a snapshot of per-partition access counts, or
// nil when partition telemetry is disabled.
func (g *Global) PartitionAccesses() []uint64 { return snapshotParts(g.parts, accessOf) }

// PartitionConflicts returns a snapshot of per-partition conflict counts,
// or nil when partition telemetry is disabled.
func (g *Global) PartitionConflicts() []uint64 { return snapshotParts(g.parts, conflictOf) }

// NumPartitions returns how many partition counters are initialized
// (zero when partition telemetry is disabled).
func (g *Global) NumPartitions() int { return len(g.parts) }

func accessOf(c *PartitionCounter) uint64   { return c.Accesses.Load() }
func conflictOf(c *PartitionCounter) uint64 { return c.Conflicts.Load() }

func snapshotParts(parts []PartitionCounter, get func(*PartitionCounter) uint64) []uint64 {
	if len(parts) == 0 {
		return nil
	}
	out := make([]uint64, len(parts))
	for i := range parts {
		out[i] = get(&parts[i])
	}
	return out
}

// RecordVersionsPruned adds n reclaimed version nodes.
func (g *Global) RecordVersionsPruned(n uint64) {
	if n > 0 {
		g.VersionsPruned.Add(n)
	}
}

// RecordVersionChainLen folds one observed chain length into the maximum.
func (g *Global) RecordVersionChainLen(n uint64) {
	for {
		cur := g.VersionChainMax.Load()
		if n <= cur || g.VersionChainMax.CompareAndSwap(cur, n) {
			return
		}
	}
}

// RecordWound counts one wounded transaction.
func (g *Global) RecordWound() { g.Wounds.Add(1) }

// RecordCascade records one cascading-abort event with its chain length
// (the number of transactions aborted by one transaction's abort, §4.2).
func (g *Global) RecordCascade(chain int) {
	g.Cascades.Add(1)
	g.ChainSum.Add(uint64(chain))
	for {
		cur := g.ChainMax.Load()
		if uint64(chain) <= cur || g.ChainMax.CompareAndSwap(cur, uint64(chain)) {
			return
		}
	}
}

// RecordCommit records a committed attempt with its time breakdown.
func (c *Collector) RecordCommit(exec, lockWait, commitWait time.Duration) {
	c.Commits++
	c.UsefulTime += exec
	c.LockWait += lockWait
	c.CommitWait += commitWait
	c.Lat.Record(exec + lockWait + commitWait)
	if c.Live != nil {
		c.Live.Commits.Add(1)
		c.Live.UsefulTime.Add(int64(exec))
		c.Live.LockWait.Add(int64(lockWait))
		c.Live.CommitWait.Add(int64(commitWait))
		c.Live.Lat.Record(exec + lockWait + commitWait)
	}
}

// RecordAbort records an aborted attempt.
func (c *Collector) RecordAbort(cause txn.AbortCause, exec, lockWait, commitWait time.Duration) {
	c.Aborts++
	if int(cause) < len(c.AbortsBy) {
		c.AbortsBy[cause]++
	}
	c.AbortTime += exec
	c.LockWait += lockWait
	c.CommitWait += commitWait
	if c.Live != nil {
		c.Live.Aborts.Add(1)
		if int(cause) < len(c.Live.AbortsBy) {
			c.Live.AbortsBy[cause].Add(1)
		}
		c.Live.AbortTime.Add(int64(exec))
		c.Live.LockWait.Add(int64(lockWait))
		c.Live.CommitWait.Add(int64(commitWait))
	}
}

// Merge folds other into c.
func (c *Collector) Merge(other *Collector) {
	c.Commits += other.Commits
	c.Aborts += other.Aborts
	for i := range c.AbortsBy {
		c.AbortsBy[i] += other.AbortsBy[i]
	}
	c.LockWait += other.LockWait
	c.CommitWait += other.CommitWait
	c.AbortTime += other.AbortTime
	c.UsefulTime += other.UsefulTime
	if other.Elapsed > c.Elapsed {
		c.Elapsed = other.Elapsed
	}
	for k := range c.Counts {
		c.Counts[k] += other.Counts[k]
	}
	c.Lat.Merge(&other.Lat)
}

// Report is an immutable summary of a run, and — through its JSON tags —
// the per-point record of the bench result document (bench.Point embeds
// it). Durations marshal as integer nanoseconds, hence the _ns key
// suffixes.
type Report struct {
	Protocol string `json:"protocol"`
	Workers  int    `json:"workers"`

	Commits uint64 `json:"commits"`
	Aborts  uint64 `json:"aborts"`
	// AbortRate is aborted attempts / total attempts.
	AbortRate float64 `json:"abort_rate"`
	// AbortsBy maps cause name → count.
	AbortsBy map[string]uint64 `json:"aborts_by,omitempty"`

	// ThroughputTPS is committed transactions per second of wall time.
	ThroughputTPS float64 `json:"throughput_tps"`

	// Amortized per-committed-transaction runtime breakdown (the paper's
	// "amortized runtime per txn" figures).
	PerTxnLockWait   time.Duration `json:"lock_wait_ns"`
	PerTxnCommitWait time.Duration `json:"commit_wait_ns"`
	PerTxnAbort      time.Duration `json:"abort_ns"`
	PerTxnUseful     time.Duration `json:"useful_ns"`

	Wounds   uint64  `json:"wounds,omitempty"`
	Cascades uint64  `json:"cascades,omitempty"`
	AvgChain float64 `json:"avg_chain,omitempty"`
	MaxChain uint64  `json:"max_chain,omitempty"`

	// Lock-upgrade and early-release telemetry: successful SH→EX
	// promotions and retires (writes made visible before commit).
	Upgrades uint64 `json:"upgrades,omitempty"`
	Retires  uint64 `json:"retires,omitempty"`

	// MVCC snapshot-read telemetry (zero on non-MVCC runs): reads served
	// lock-free at a snapshot, version nodes reclaimed (install-time
	// reuse plus background sweeps), and the longest version chain the
	// pruner observed.
	SnapshotReads   uint64 `json:"snapshot_reads,omitempty"`
	VersionsPruned  uint64 `json:"versions_pruned,omitempty"`
	VersionChainMax uint64 `json:"version_chain_max,omitempty"`

	// Row-image buffer telemetry: fresh image allocations on the write
	// path and copies served from recycled spare buffers instead.
	ImageCopies       uint64 `json:"image_copies,omitempty"`
	ImagePoolRecycled uint64 `json:"image_pool_recycled,omitempty"`

	// Per-partition telemetry (partition-aware runs only): accesses and
	// conflicts per partition id, and the access skew — the hottest
	// partition's share of accesses relative to a perfectly balanced
	// spread (1.0 = balanced, NumPartitions = everything on one).
	PartitionAccesses  []uint64 `json:"partition_accesses,omitempty"`
	PartitionConflicts []uint64 `json:"partition_conflicts,omitempty"`
	PartitionSkew      float64  `json:"partition_skew,omitempty"`

	// LoadTime is the workload load wall time; set by the bench harness
	// (zero when not measured).
	LoadTime time.Duration `json:"load_ns,omitempty"`

	// WAL durability telemetry for the run's DB, set by the bench
	// harness from the log devices (zero when not measured): records,
	// payload bytes, and fsync count/time (what a real device charges,
	// and what a syncer amortizes).
	WALAppends  uint64        `json:"wal_appends,omitempty"`
	WALBytes    uint64        `json:"wal_bytes,omitempty"`
	WALSyncs    uint64        `json:"wal_syncs,omitempty"`
	WALSyncTime time.Duration `json:"fsync_ns,omitempty"`

	// Storage-lifecycle telemetry: fuzzy snapshots written and their
	// cumulative capture+write time, truncation passes that unlinked log
	// segments and the bytes they reclaimed (checkpoint-enabled runs
	// only), and the live (not yet truncated) bytes of file-backed logs —
	// the quantity truncation bounds.
	CheckpointCount uint64        `json:"checkpoints,omitempty"`
	CheckpointTime  time.Duration `json:"checkpoint_ns,omitempty"`
	Truncations     uint64        `json:"truncations,omitempty"`
	TruncatedBytes  int64         `json:"truncated_bytes,omitempty"`
	LogBytesLive    int64         `json:"log_bytes_live,omitempty"`

	// Commit-latency distribution (lock wait + execution + commit wait),
	// from the merged worker histograms.
	LatencyMean time.Duration `json:"latency_mean_ns"`
	LatencyP50  time.Duration `json:"latency_p50_ns"`
	LatencyP90  time.Duration `json:"latency_p90_ns"`
	LatencyP95  time.Duration `json:"latency_p95_ns"`
	LatencyP99  time.Duration `json:"latency_p99_ns"`
	LatencyP999 time.Duration `json:"latency_p999_ns"`
	LatencyMax  time.Duration `json:"latency_max_ns"`

	Elapsed time.Duration `json:"elapsed_ns"`
}

// Summarize merges the worker collectors and derives a report. g carries
// the manager-level wound/cascade counters and may be nil.
func Summarize(protocol string, elapsed time.Duration, workers []*Collector, g *Global) Report {
	var all Collector
	for _, w := range workers {
		all.Merge(w)
	}
	r := Report{
		Protocol: protocol,
		Workers:  len(workers),
		Commits:  all.Commits,
		Aborts:   all.Aborts,
		AbortsBy: make(map[string]uint64),
		Elapsed:  elapsed,
	}
	r.Upgrades = all.Counts[Upgrades]
	r.Retires = all.Counts[Retires]
	r.SnapshotReads = all.Counts[SnapshotReads]
	r.VersionsPruned = all.Counts[VersionsPruned]
	r.ImageCopies = all.Counts[ImageCopies]
	r.ImagePoolRecycled = all.Counts[ImagePoolRecycled]
	var cascades, chainSum uint64
	if g != nil {
		r.Wounds = g.Wounds.Load()
		cascades = g.Cascades.Load()
		chainSum = g.ChainSum.Load()
		r.Cascades = cascades
		r.MaxChain = g.ChainMax.Load()
		r.VersionsPruned += g.VersionsPruned.Load()
		r.VersionChainMax = g.VersionChainMax.Load()
		r.PartitionAccesses = g.PartitionAccesses()
		r.PartitionConflicts = g.PartitionConflicts()
		r.PartitionSkew = Skew(r.PartitionAccesses)
	}
	for cause, n := range all.AbortsBy {
		if n > 0 {
			r.AbortsBy[txn.AbortCause(cause).String()] = n
		}
	}
	if total := all.Commits + all.Aborts; total > 0 {
		r.AbortRate = float64(all.Aborts) / float64(total)
	}
	if elapsed > 0 {
		r.ThroughputTPS = float64(all.Commits) / elapsed.Seconds()
	}
	if all.Commits > 0 {
		n := time.Duration(all.Commits)
		r.PerTxnLockWait = all.LockWait / n
		r.PerTxnCommitWait = all.CommitWait / n
		r.PerTxnAbort = all.AbortTime / n
		r.PerTxnUseful = all.UsefulTime / n
	}
	if cascades > 0 {
		r.AvgChain = float64(chainSum) / float64(cascades)
	}
	if all.Lat.Count() > 0 {
		r.LatencyMean = all.Lat.Mean()
		r.LatencyP50 = all.Lat.Quantile(0.50)
		r.LatencyP90 = all.Lat.Quantile(0.90)
		r.LatencyP95 = all.Lat.Quantile(0.95)
		r.LatencyP99 = all.Lat.Quantile(0.99)
		r.LatencyP999 = all.Lat.Quantile(0.999)
		r.LatencyMax = all.Lat.Max()
	}
	return r
}

// Skew returns max/mean of the access counts: 1.0 for a perfectly
// balanced spread, NumPartitions when one partition takes every access, 0
// when there is nothing to measure. The bench report, /debug/vars and
// /metrics all print this one value.
func Skew(accesses []uint64) float64 {
	if len(accesses) == 0 {
		return 0
	}
	var sum, max uint64
	for _, a := range accesses {
		sum += a
		if a > max {
			max = a
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(accesses))
	return float64(max) / mean
}

// BreakdownRow returns the four per-transaction time components in the
// order the paper's stacked bars use: lock wait, abort, commit wait,
// useful.
func (r Report) BreakdownRow() [4]time.Duration {
	return [4]time.Duration{r.PerTxnLockWait, r.PerTxnAbort, r.PerTxnCommitWait, r.PerTxnUseful}
}
