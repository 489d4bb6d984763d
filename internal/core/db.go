// Package core implements the paper's primary contribution: the Bamboo
// transaction executor (Algorithm 1) over the lock table of
// internal/lock, together with the 2PL baselines that share the same code
// path (Wound-Wait, Wait-Die, No-Wait).
//
// The package exposes the engine-neutral interfaces (Engine, Session, Tx,
// TxnFunc) that the workloads and the benchmark harness program against,
// so that the OCC baseline (internal/occ) and the interactive-mode wrapper
// (internal/rpcsim) are drop-in replacements.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bamboo/internal/lock"
	"bamboo/internal/stats"
	"bamboo/internal/storage"
	"bamboo/internal/telemetry"
	"bamboo/internal/txn"
	"bamboo/internal/wal"
)

// ErrUserAbort is returned by transaction logic to request a final,
// user-initiated abort (paper §4.1 case 3, e.g. TPC-C's 1% rollbacks).
// The session aborts the transaction and does not retry it.
var ErrUserAbort = errors.New("core: user-initiated abort")

// Config selects the protocol variant and Bamboo's optimization toggles.
type Config struct {
	// Variant is the lock-table discipline. Variant lock.Bamboo retires
	// writes early (the paper's LockRetire), and Delta decides which; a
	// Bamboo that retired none would be Wound-Wait (§3.4), which is
	// lock.WoundWait.
	Variant lock.Variant

	// RetireReads is Optimization 1 (reads retire at grant).
	RetireReads bool
	// NoWoundRead is Optimization 3 (reads never wound).
	NoWoundRead bool
	// DynamicTS is Optimization 4 (timestamp on first conflict).
	DynamicTS bool
	// Delta is Optimization 2: writes in the last Delta fraction of a
	// transaction's declared accesses are not retired eagerly (they are
	// still retired adaptively if the transaction ends up commit-waiting
	// longer than Delta of its execution time). The paper uses 0.15.
	Delta float64

	// Partitions is the storage partition count workload loaders create
	// their tables with (TPC-C ranges by warehouse, YCSB hashes by key)
	// and the size of the per-partition access/conflict counters the
	// executor feeds. 0 or 1 is the single-partition layout: one storage
	// partition, one log.
	Partitions int

	// OnCommit, if non-nil, receives every committed transaction
	// (testing/verification only; it runs inside the commit critical
	// path, under the transaction's locks). The images its AccessInfo
	// references are valid only for the duration of the call: the engine
	// recycles superseded images whether or not a hook is set, so a hook
	// that keeps Read or Wrote must copy them.
	OnCommit OnCommitHook

	// LogDevice overrides the WAL device (nil = in-memory, not recording).
	// It only applies to the single-partition, in-memory layout: a
	// partitioned DB owns one device per partition and a WALDir-backed DB
	// owns its file devices, so NewDB panics on either combination to
	// fail loudly.
	LogDevice wal.Device

	// WALDir, when set, puts the commit log on real files: one segment
	// chain per storage partition under this directory
	// (wal.OpenSegmentedDevice, wal-PPP-<seq>.seg, rotated at
	// Checkpoint.SegmentBytes), continued where an earlier run left it.
	// Empty keeps the in-memory devices. DB.Close syncs and closes the
	// files; DB.ReplayDir rebuilds state from such a directory after a
	// crash.
	WALDir string
	// WALFsync selects when the file devices fsync: before each commit
	// returns, with one syncer per device sharing each fsync among the
	// commits it covers (batch); at most once per
	// wal.DefaultFsyncInterval (interval); or never (none). Only
	// meaningful with WALDir set.
	WALFsync wal.FsyncPolicy

	// Checkpoint configures the storage lifecycle — fuzzy checkpoints
	// and WAL truncation (see CheckpointConfig). Requires WALDir; the
	// log layout is the same with or without it. Its SegmentBytes sizes
	// every WALDir log's segments, checkpoints on or off. Lock engines
	// only: occ.New and chop.New refuse a DB that enables checkpoints.
	Checkpoint CheckpointConfig

	// MVCC enables the multi-version read path: commits install their
	// after-images into per-row version chains, and transactions marked
	// read-only (core.MarkReadOnly) execute at a snapshot timestamp with
	// zero lock acquisitions, zero aborts and zero steady-state
	// allocations. Versions are volatile — only the newest committed
	// image is logged and checkpointed, so recovery is unchanged. Off
	// (the default), rows carry no version chain and commits install
	// nothing. Lock engines only: occ.New and chop.New refuse it.
	MVCC bool

	// MetricsAddr, when non-empty, serves the live telemetry endpoints
	// (/metrics Prometheus text exposition, /debug/vars JSON, /healthz)
	// on this address for the DB's lifetime; ":0" binds a free port
	// (DB.MetricsAddr returns the bound address). The DB owns a
	// telemetry.Registry, started in NewDB and stopped in Close. NewDB
	// panics if the address cannot be bound — a DB whose operator asked
	// for observability and silently lost it must not come up. Empty
	// (the default) disables the endpoint and keeps the hot path free of
	// atomic mirror writes; to share one registry (and port) across
	// several DBs, leave this empty and call DB.EnableMetrics instead.
	MetricsAddr string
}

// DefaultAbortBackoff bounds the jittered sleep (DBx1000's ABORT_PENALTY)
// with which the attempt loop's backoff delays the retry of a self-abort
// (txn.CauseDie: No-Wait, Wait-Die, a Bamboo commit's self-revert, an IC3
// deadlock victim) and of an IC3 cascade. One that retries at once
// spins on the conflict it just lost, and on more than one core the
// holder it is waiting out may never get to finish. Wounds, lock-engine
// cascades and Silo validation failures retry at once. The sleep asks for
// 0–200 µs, but the timer cannot wake that soon: on a 2-vCPU linux/amd64
// host the retry actually waited 1.07 ms at p10, 1.09 ms at p50 and
// 3.3 ms at p99 (EXPERIMENTS.md, 2026-10-17).
const DefaultAbortBackoff = 200 * time.Microsecond

// Bamboo returns the paper's full configuration: all four optimizations
// with δ = 0.15.
func Bamboo() Config {
	return Config{
		Variant:     lock.Bamboo,
		RetireReads: true,
		NoWoundRead: true,
		DynamicTS:   true,
		Delta:       0.15,
	}
}

// BambooBase is Bamboo without Optimization 2 (every write retires
// eagerly) — the BAMBOO-base line of Figures 4 and 5.
func BambooBase() Config {
	c := Bamboo()
	c.Delta = 0
	return c
}

// WoundWait, WaitDie and NoWait return baseline 2PL configurations.
func WoundWait() Config { return Config{Variant: lock.WoundWait} }

// WaitDie returns the Wait-Die 2PL baseline configuration.
func WaitDie() Config { return Config{Variant: lock.WaitDie} }

// NoWait returns the No-Wait 2PL baseline configuration.
func NoWait() Config { return Config{Variant: lock.NoWait} }

// DB is a database instance: catalog, lock manager, log and the protocol
// configuration. One DB hosts one protocol at a time.
type DB struct {
	Catalog *storage.Catalog
	Lock    *lock.Manager
	// PLog is the partition-routed durability pipeline: one log and
	// device per storage partition. Every engine logs through
	// a CommitLog, which routes each write to its owning partition's log.
	PLog   *wal.PartitionedLog
	Global *stats.Global

	// Snap coordinates MVCC snapshot timestamps (in-flight commit
	// windows, active snapshots, the reclaim watermark). Nil — a single
	// pointer test on the commit path — when MVCC is off.
	Snap *txn.SnapshotTable

	cfg Config
	// txnIDs is the last transaction id reserved; sessions reserve them
	// a block at a time (TxnIDs).
	txnIDs atomic.Uint64
	pruner *pruner

	// live is the atomic telemetry mirror every session's collector
	// writes through when metrics are enabled (nil otherwise — the
	// collectors then pay one nil check per record and nothing else).
	live        *stats.Live
	liveSince   time.Time // when EnableMetrics attached live
	metrics     *telemetry.Registry
	metricsSrc  *telemetry.Sources
	ownMetrics  bool
	metricsAddr string

	// ckptGate closes the fuzzy-checkpoint race: commit windows hold it
	// shared from log sequencing through lock release, and the
	// checkpointer takes it exclusively — only for the instant it reads
	// the partition sequence — so a checkpoint LSN never lands between
	// "record sequenced at seq" and "effects installed". Nil (a single
	// pointer test on the commit path) when checkpoints are disabled.
	ckptGate *sync.RWMutex
	ckpt     *checkpointer

	// protocol is the display name an engine outside this package set
	// (Claim); nil means the lock engine's, derived from cfg.
	// Atomic because a metrics scrape may render it while occ.New or
	// chop.New sets it.
	protocol atomic.Pointer[string]

	// poll is the gate of every session's waits (NewWaiter): true while
	// workers, the highest worker index that opened a session plus one,
	// is at most GOMAXPROCS. gateMu orders the updates.
	poll    atomic.Bool
	gateMu  sync.Mutex
	workers int
}

// NewDB creates a database with the given protocol configuration.
func NewDB(cfg Config) *DB {
	db := &DB{
		Catalog: storage.NewCatalog(),
		Global:  &stats.Global{},
		cfg:     cfg,
	}
	// Partition telemetry only for actually-partitioned runs: with the
	// single-partition layout every worker would hammer one shared counter
	// cacheline per row access. Without counters the lock engine does not
	// even read the row's partition id, which lies on another cache line
	// of the row than the lock entry it works on.
	if cfg.Partitions > 1 {
		db.Global.InitPartitions(db.Partitions())
	}
	lockCfg := lock.Config{
		Variant:     cfg.Variant,
		RetireReads: cfg.Variant == lock.Bamboo && cfg.RetireReads,
		NoWoundRead: cfg.Variant == lock.Bamboo && cfg.NoWoundRead,
		DynamicTS:   cfg.DynamicTS,
		OnWound:     db.Global.RecordWound,
		OnCascade:   db.Global.RecordCascade,
		// MVCC version chains adopt every committed image, so there the
		// lock table never recycles one; installVersions harvests the
		// images of the chains' detached tails instead.
		RecycleImages: !cfg.MVCC,
	}
	db.Lock = lock.NewManager(lockCfg)
	db.PLog = wal.NewPartitioned(db.walDevices())
	if cfg.Checkpoint.Enabled() {
		db.ckptGate = &sync.RWMutex{}
		db.ckpt = newCheckpointer(db)
	}
	if cfg.MVCC {
		db.Catalog.SetMVCC(true)
		db.Snap = txn.NewSnapshotTable()
		db.pruner = startPruner(db, pruneInterval)
	}
	if cfg.MetricsAddr != "" {
		reg := telemetry.NewRegistry()
		addr, err := reg.Serve(cfg.MetricsAddr)
		if err != nil {
			panic(fmt.Sprintf("core: serve metrics on %s: %v", cfg.MetricsAddr, err))
		}
		db.ownMetrics = true
		db.metricsAddr = addr
		db.EnableMetrics(reg)
	}
	return db
}

// EnableMetrics attaches this DB's counters to reg, making it a live
// scrape source: the sessions' stats collectors start mirroring into an
// atomic stats.Live, and per-partition counters are initialized even on
// the flat single-partition layout (the mirror is opt-in, so the
// shared-cacheline cost the plain bench path avoids is accepted here).
// Call before any NewSession — sessions created earlier keep a nil
// mirror and their transactions stay invisible to the endpoint. No-op on
// a nil registry or a DB that already has one. Close detaches.
func (db *DB) EnableMetrics(reg *telemetry.Registry) {
	if reg == nil || db.metrics != nil {
		return
	}
	if db.Global.NumPartitions() == 0 {
		db.Global.InitPartitions(db.Partitions())
	}
	db.live = &stats.Live{}
	db.liveSince = time.Now()
	db.metrics = reg
	db.metricsSrc = &telemetry.Sources{Report: db.LiveReport}
	reg.Attach(db.metricsSrc)
}

// LiveReport summarizes the DB's counters so far, the way an end-of-run
// report summarizes a run: the sessions' live mirror stands in for the
// worker collectors and elapsed time starts at EnableMetrics. It is what
// /metrics and /debug/vars render; with metrics disabled it carries the
// manager-level and storage counters only. Safe to call concurrently with
// running transactions.
func (db *DB) LiveReport() stats.Report {
	var c stats.Collector
	var elapsed time.Duration
	if db.live != nil {
		db.live.Load(&c)
		elapsed = time.Since(db.liveSince)
	}
	r := stats.Summarize(db.ProtocolName(), elapsed, []*stats.Collector{&c}, db.Global)
	r.Workers = 0 // one merged mirror, not a worker count
	db.FillStorage(&r)
	return r
}

// FillStorage sets r's WAL, checkpoint, truncation and live-log-bytes
// fields from the DB's log devices and checkpointer.
func (db *DB) FillStorage(r *stats.Report) {
	ws := db.WALStats()
	r.WALAppends, r.WALBytes = ws.Appends, ws.Bytes
	r.WALSyncs, r.WALSyncTime = ws.Syncs, ws.SyncTime
	cs := db.CheckpointStats()
	r.CheckpointCount, r.CheckpointTime = cs.Checkpoints, cs.Time
	r.Truncations, r.TruncatedBytes = cs.Truncations, cs.TruncatedBytes
	r.LogBytesLive = db.LogLiveBytes()
}

// NewWaiter returns the txn.Waiter a session for worker parks on, and
// lets the session's worker count towards the poll gate it shares with
// every other session of db. A waiter polls before it yields only while
// every worker can have a processor: one whose holder has none would
// spin on the holder's time. The gate is set here, at session open, and
// never per wait, since runtime.GOMAXPROCS takes the scheduler's lock. A
// worker index is a goroutine, so sessions opened again for the same
// worker (bamboo's Execute opens one per call) do not close the gate.
func (db *DB) NewWaiter(worker int) *txn.Waiter {
	db.gateMu.Lock()
	db.workers = max(db.workers, worker+1)
	db.poll.Store(db.workers <= runtime.GOMAXPROCS(0))
	db.gateMu.Unlock()
	return txn.NewWaiter(&db.poll)
}

// LiveStats returns the atomic telemetry mirror sessions record into, or
// nil when metrics are disabled. Engines outside this package pass it to
// their collectors via stats.Collector.AttachLive.
func (db *DB) LiveStats() *stats.Live { return db.live }

// Metrics returns the attached telemetry registry (nil when disabled).
func (db *DB) Metrics() *telemetry.Registry { return db.metrics }

// MetricsAddr returns the bound address of the DB-owned metrics endpoint
// ("" when Config.MetricsAddr was empty — including when metrics were
// enabled on a shared registry, whose address the caller already knows).
func (db *DB) MetricsAddr() string { return db.metricsAddr }

// walDevices builds one log device per storage partition: file devices
// under WALDir, the caller's LogDevice (single-partition only), or
// non-recording in-memory devices — serialization cost without unbounded
// history; a test that reads records back passes a recording LogDevice.
// NewDB panics on device-open failure: a DB that silently lost its
// durability directory must not come up.
func (db *DB) walDevices() []wal.Device {
	n := db.Partitions()
	if db.cfg.WALDir != "" && db.cfg.LogDevice != nil {
		panic("core: Config.LogDevice and Config.WALDir are mutually exclusive")
	}
	if db.cfg.Checkpoint.Enabled() && db.cfg.WALDir == "" {
		panic("core: Config.Checkpoint requires Config.WALDir (checkpoints stamp and truncate file-backed logs)")
	}
	if db.cfg.WALDir != "" {
		files, err := wal.OpenPartitionSegmentedDevices(db.cfg.WALDir, n,
			db.cfg.WALFsync, db.cfg.Checkpoint.SegmentBytes)
		if err != nil {
			panic(fmt.Sprintf("core: open WAL dir %s: %v", db.cfg.WALDir, err))
		}
		devs := make([]wal.Device, n)
		for i, f := range files {
			devs[i] = f
		}
		return devs
	}
	if db.cfg.LogDevice != nil {
		if n > 1 {
			panic("core: Config.LogDevice is single-partition only; use WALDir for partitioned logs")
		}
		return []wal.Device{db.cfg.LogDevice}
	}
	devs := make([]wal.Device, n)
	for i := range devs {
		devs[i] = wal.NewMemDevice(false)
	}
	return devs
}

// Close stops the checkpointer (if started) and the MVCC pruner, and
// syncs and closes file-backed log devices, stopping their syncers. Safe
// to call on any DB; required when WALDir or checkpointing is enabled.
func (db *DB) Close() error {
	if db.ckpt != nil {
		db.ckpt.stop()
	}
	if db.pruner != nil {
		db.pruner.stop()
	}
	if db.metrics != nil {
		// Detach is conditional (only if this DB is still the attached
		// source) so closing an old DB never silences a newer one that
		// re-attached the shared registry.
		db.metrics.Detach(db.metricsSrc)
		if db.ownMetrics {
			db.metrics.Close()
		}
		db.metrics, db.metricsSrc = nil, nil
	}
	return db.PLog.Close()
}

// WALStats sums the durability telemetry of every partition log device:
// records and bytes appended and fsync count/time (what a real device
// charges, and what a syncer amortizes).
func (db *DB) WALStats() wal.DeviceStats { return db.PLog.Stats() }

// Config returns the DB's protocol configuration.
func (db *DB) Config() Config { return db.cfg }

// Partitions returns the configured storage partition count, normalized
// to ≥ 1. Workload loaders create their tables with this many partitions.
func (db *DB) Partitions() int {
	if db.cfg.Partitions < 1 {
		return 1
	}
	return db.cfg.Partitions
}

// ProtocolName returns the display name of the engine that runs on db,
// matching the paper's legends: the lock configuration's name until an
// engine outside this package claims the DB with Claim. It is
// the protocol LiveReport, /metrics and /debug/vars report.
func (db *DB) ProtocolName() string {
	if p := db.protocol.Load(); p != nil {
		return *p
	}
	if db.cfg.Variant == lock.Bamboo {
		if db.cfg.Delta == 0 {
			return "BAMBOO-base"
		}
		return "BAMBOO"
	}
	return db.cfg.Variant.String()
}

// Claim is how an engine outside this package that publishes its own row
// images (occ.New's Silo, chop.New's IC3) takes db. It panics as
// CheckClaim does if db's Config sets what such an engine cannot honour.
// Then it records name as db's protocol, so a DB built from a zero Config
// does not report the zero Variant's NO_WAIT.
func (db *DB) Claim(name string) {
	CheckClaim(db.cfg, name)
	db.protocol.Store(&name)
}

// CheckClaim panics, naming the setting, if cfg sets one that the engine
// name, which publishes its own row images, cannot honour: Checkpoint
// (see CheckpointConfig) or MVCC (Silo stamps its versions with TIDs,
// not snapshot timestamps; IC3 installs none). A caller that builds the
// DB for such an engine calls it before NewDB, which would otherwise
// start the MVCC pruner, the WAL devices' syncers or the metrics server
// before Claim refuses the DB.
func CheckClaim(cfg Config, name string) {
	if cfg.Checkpoint.Enabled() {
		panic("core: " + name + " cannot run with Config.Checkpoint: its commits are not checkpoint-safe")
	}
	if cfg.MVCC {
		panic("core: " + name + " cannot run with Config.MVCC: it installs no snapshot versions")
	}
}

// Engine abstracts a concurrency-control engine so workloads and the
// bench harness can drive Bamboo, the 2PL baselines, Silo and the
// interactive-mode wrapper identically.
type Engine interface {
	// Name is the protocol display name.
	Name() string
	// NewSession creates a per-worker session reporting into col.
	NewSession(worker int, col *stats.Collector) Session
	// Database returns the underlying DB (catalog access for workloads).
	Database() *DB
}

// Session executes logical transactions for one worker.
type Session interface {
	// Run executes fn as one logical transaction, retrying aborted
	// attempts until it commits or aborts finally (user abort). The
	// returned error is nil for commits and user aborts; anything else is
	// a programming error that poisons the run.
	Run(fn TxnFunc) error
}

// TxnFunc is the body of a transaction.
type TxnFunc func(tx Tx) error

// Tx is the operation interface transaction bodies use. Implementations:
// the lock-based executor here, the Silo executor in internal/occ, the
// IC3 piece executor in internal/chop, and the latency-charging wrapper
// in internal/rpcsim.
type Tx interface {
	// Read returns the image of row visible to this transaction. The
	// caller must not mutate it, and must not retain it past the end of
	// the transaction body: once the transaction releases its locks the
	// engine may recycle the image's storage for a later write.
	Read(row *storage.Row) ([]byte, error)
	// Update applies mutate to this transaction's private copy of row. A
	// row this transaction previously Read is upgraded SH→EX in place
	// (un-annotated read-modify-write), so workloads need not declare
	// read vs. write intent up front.
	Update(row *storage.Row, mutate func(img []byte)) error
	// Insert buffers a row insert that becomes visible at commit.
	Insert(tbl *storage.Table, key uint64, img []byte) error
	// DeclareOps tells the executor how many row accesses the transaction
	// will perform; Bamboo's Optimization 2 (δ) needs it. Zero (never
	// declared) means "retire everything", which matches the paper's
	// interactive mode where every write is treated as the last write.
	DeclareOps(n int)
	// Worker returns the worker index of the owning session (workload
	// generators key per-worker state off it).
	Worker() int
	// ID returns the logical transaction id (stable across retries).
	ID() uint64
}

// fatalf wraps a programming error so sessions can distinguish it from
// protocol aborts.
func fatalf(format string, args ...any) error {
	return fmt.Errorf("core: fatal: "+format, args...)
}
