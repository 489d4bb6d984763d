// Package bamboo is the public API of this reproduction of "Releasing
// Locks As Early As You Can: Reducing Contention of Hotspots by Violating
// Two-Phase Locking" (Guo, Wu, Yan, Yu — SIGMOD 2021).
//
// It exposes an embeddable in-memory transactional engine with pluggable
// concurrency control: the paper's Bamboo protocol (early lock retiring
// over Wound-Wait with dirty reads, commit-semaphore dependency tracking
// and cascading aborts), the 2PL baselines (Wound-Wait, Wait-Die,
// No-Wait), the Silo OCC baseline, and an interactive-mode wrapper that
// charges a network round trip per operation.
//
// Quick start:
//
//	db := bamboo.Open(bamboo.Options{Protocol: bamboo.Bamboo})
//	accounts := db.CreateTable(bamboo.NewSchema("accounts",
//		bamboo.Column{Name: "balance", Type: bamboo.ColInt64}))
//	... load rows ...
//	err := db.Execute(0, func(tx bamboo.Tx) error {
//		return tx.Update(accounts.Get(42), func(img []byte) {
//			accounts.Schema.AddInt64(img, 0, 100)
//		})
//	})
//
// See the examples directory for runnable programs and internal/bench for
// the paper's experiments.
package bamboo

import (
	"fmt"
	"time"

	"bamboo/internal/core"
	"bamboo/internal/lock"
	"bamboo/internal/occ"
	"bamboo/internal/rpcsim"
	"bamboo/internal/stats"
	"bamboo/internal/storage"
	"bamboo/internal/wal"
)

// Protocol selects the concurrency-control scheme of a DB.
type Protocol int

const (
	// Bamboo is the paper's protocol with all optimizations (§3.5) and
	// δ = 0.15.
	Bamboo Protocol = iota
	// BambooBase is Bamboo without Optimization 2 (every write retires).
	BambooBase
	// WoundWait, WaitDie and NoWait are the 2PL baselines.
	WoundWait
	// WaitDie is the Wait-Die 2PL baseline.
	WaitDie
	// NoWait is the No-Wait 2PL baseline.
	NoWait
	// Silo is the OCC baseline.
	Silo
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case Bamboo:
		return "BAMBOO"
	case BambooBase:
		return "BAMBOO-base"
	case WoundWait:
		return "WOUND_WAIT"
	case WaitDie:
		return "WAIT_DIE"
	case NoWait:
		return "NO_WAIT"
	case Silo:
		return "SILO"
	default:
		return fmt.Sprintf("protocol(%d)", int(p))
	}
}

// Re-exported storage types: schemas and tables are defined once and used
// by every engine.
type (
	// Schema is a fixed-width row layout.
	Schema = storage.Schema
	// Column describes one column of a schema.
	Column = storage.Column
	// Table is a collection of rows with a primary hash index.
	Table = storage.Table
	// Row is one tuple.
	Row = storage.Row
	// Tx is the operation interface transaction bodies use.
	Tx = core.Tx
	// TxnFunc is a transaction body.
	TxnFunc = core.TxnFunc
	// Report summarizes a run's throughput, abort rates and time
	// breakdown.
	Report = stats.Report
)

// Column type constants.
const (
	// ColInt64 is a 64-bit integer column.
	ColInt64 = storage.ColInt64
	// ColFloat64 is a 64-bit float column.
	ColFloat64 = storage.ColFloat64
	// ColBytes is a fixed-width byte-string column.
	ColBytes = storage.ColBytes
)

// NewSchema builds a schema from columns.
func NewSchema(name string, cols ...Column) *Schema { return storage.NewSchema(name, cols...) }

// ErrUserAbort requests a final, user-initiated abort from inside a
// transaction body; the transaction is rolled back and not retried.
var ErrUserAbort = core.ErrUserAbort

// Config is the engine configuration Options embeds: storage partitions,
// MVCC, group commit, the WAL directory and fsync policy, checkpoints,
// the metrics endpoint. Its five protocol fields (Variant, RetireReads,
// NoWoundRead, DynamicTS, Delta) belong to Options.Protocol and must stay
// unset.
type Config = core.Config

// Options configures Open.
type Options struct {
	// Protocol selects the concurrency control scheme (default Bamboo).
	// Silo ignores Config.MVCC: only the lock engines keep version chains.
	// Silo refuses Config.Checkpoint (Open panics): its commits are not
	// checkpoint-safe.
	Protocol Protocol
	// InteractiveRTT, when positive, wraps the engine in the
	// interactive-mode transport charging this round trip per operation.
	InteractiveRTT time.Duration
	// Config carries everything the protocol does not decide; set its
	// fields through Options (opts.MetricsAddr = ":0", opts.WALDir = dir).
	Config
}

// FsyncPolicy re-exports the WAL fsync policies for Config.WALFsync.
type FsyncPolicy = wal.FsyncPolicy

// Fsync policies for Config.WALFsync.
const (
	// FsyncNone never syncs (page-cache durability only).
	FsyncNone = wal.FsyncNone
	// FsyncBatch syncs once per device write (per record, or per group-
	// commit epoch when GroupCommit is on).
	FsyncBatch = wal.FsyncBatch
	// FsyncInterval syncs at most once per wal.DefaultFsyncInterval (1 ms).
	FsyncInterval = wal.FsyncInterval
)

// DB is a database instance bound to one protocol.
type DB struct {
	inner  *core.DB
	engine core.Engine
	silo   *occ.Engine
}

// Open creates a database. It panics if opts.Config sets one of the
// protocol fields Options.Protocol decides, as core.NewDB panics on other
// illegal configurations: a preset silently overriding the caller's value
// would run a protocol nobody asked for.
func Open(opts Options) *DB {
	cfg := opts.Config
	if cfg.Variant != 0 || cfg.RetireReads || cfg.NoWoundRead || cfg.DynamicTS || cfg.Delta != 0 {
		panic("bamboo: Options.Protocol selects Variant, RetireReads, NoWoundRead, DynamicTS and Delta; leave them unset in Options.Config")
	}
	var p core.Config
	switch opts.Protocol {
	case Bamboo:
		p = core.Bamboo()
	case BambooBase:
		p = core.BambooBase()
	case WoundWait:
		p = core.WoundWait()
	case WaitDie:
		p = core.WaitDie()
	case NoWait:
		p = core.NoWait()
	case Silo:
		cfg.MVCC = false
	}
	cfg.Variant, cfg.RetireReads = p.Variant, p.RetireReads
	cfg.NoWoundRead, cfg.DynamicTS, cfg.Delta = p.NoWoundRead, p.DynamicTS, p.Delta

	db := &DB{inner: core.NewDB(cfg)}
	if opts.Protocol == Silo {
		db.silo = occ.New(db.inner)
		db.engine = db.silo
	} else {
		db.engine = core.NewLockEngine(db.inner)
	}
	if opts.InteractiveRTT > 0 {
		db.engine = rpcsim.New(db.engine, rpcsim.Config{RTT: opts.InteractiveRTT})
	}
	return db
}

// Close releases background resources (the Silo epoch advancer and the
// group-commit flusher).
func (db *DB) Close() {
	if db.silo != nil {
		db.silo.Close()
	}
	db.inner.Close()
}

// Protocol returns the display name of the configured protocol.
func (db *DB) Protocol() string { return db.engine.Name() }

// MetricsAddr returns the bound address of the metrics endpoint ("" when
// Options.MetricsAddr was empty). With ":0" this is where the server
// actually listens.
func (db *DB) MetricsAddr() string { return db.inner.MetricsAddr() }

// CreateTable creates a table, panicking on duplicate names (schema setup
// is static).
func (db *DB) CreateTable(schema *Schema) *Table {
	return db.inner.Catalog.MustCreateTable(schema, 0)
}

// Table returns a table by name, or nil.
func (db *DB) Table(name string) *Table { return db.inner.Catalog.Table(name) }

// Execute runs fn as one serializable transaction on behalf of the given
// worker, retrying internally until it commits or aborts finally. It
// returns nil on commit and on user abort; any other error is a
// programming error.
func (db *DB) Execute(worker int, fn TxnFunc) error {
	sess := db.engine.NewSession(worker, &stats.Collector{})
	return sess.Run(fn)
}

// Session is a long-lived per-worker execution context that accumulates
// statistics; prefer it over Execute in loops.
type Session struct {
	inner core.Session
	col   *stats.Collector
}

// NewSession creates a session for a worker.
func (db *DB) NewSession(worker int) *Session {
	col := &stats.Collector{}
	return &Session{inner: db.engine.NewSession(worker, col), col: col}
}

// Run executes one logical transaction.
func (s *Session) Run(fn TxnFunc) error { return s.inner.Run(fn) }

// Stats summarizes the session so far.
func (s *Session) Stats() Report {
	return stats.Summarize("session", s.col.Elapsed, []*stats.Collector{s.col}, nil)
}

// Run drives a closed-loop multi-worker run: workers goroutines each
// execute perWorker transactions produced by gen and the merged report is
// returned. gen receives (worker, seq).
func (db *DB) Run(workers, perWorker int, gen func(worker, seq int) TxnFunc) (Report, error) {
	res := core.RunN(db.engine, workers, perWorker, core.Generator(gen))
	return res.Report, res.Err
}

// RunFor is Run with a wall-clock budget instead of a transaction count.
func (db *DB) RunFor(workers int, d time.Duration, gen func(worker, seq int) TxnFunc) (Report, error) {
	res := core.RunFor(db.engine, workers, d, core.Generator(gen))
	return res.Report, res.Err
}

// Engine exposes the underlying core.Engine for integration with the
// workload and bench packages.
func (db *DB) Engine() core.Engine { return db.engine }

// Internal returns the underlying core.DB (catalog, WAL, commit hooks).
func (db *DB) Internal() *core.DB { return db.inner }

// LockVariant re-exports the lock variants for advanced configuration via
// the internal packages.
type LockVariant = lock.Variant
