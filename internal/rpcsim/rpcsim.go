// Package rpcsim implements the paper's interactive execution mode
// (§5.1): transaction logic runs on a client that issues one request per
// database operation — get_row(), update_row(), commit() — to the DB
// server, paying a network round trip each time. The paper uses gRPC
// between CloudLab machines; here the transport is an in-process wrapper
// that charges a configurable round-trip latency per call, preserving the
// cost model that makes interactive mode interesting: per-operation
// stalls lengthen lock hold times, and aborts waste whole chains of round
// trips.
//
// The wrapper composes with any core.Engine (the lock engines and Silo),
// so the interactive columns of Figures 8–10 run the same code as the
// stored-procedure columns plus latency.
//
// In interactive mode Bamboo cannot know a transaction's access list up
// front, so the server retires every write immediately (the paper treats
// every update_row as the last write); this falls out naturally because
// DeclareOps is never called.
package rpcsim

import (
	"runtime"
	"time"

	"bamboo/internal/core"
	"bamboo/internal/stats"
	"bamboo/internal/storage"
)

// Config tunes the simulated network.
type Config struct {
	// RTT is the round-trip latency charged per database call. The paper
	// measured gRPC on a LAN; 100µs is in that range. The begin and the
	// commit (or abort) call pay it too.
	RTT time.Duration
}

// DefaultConfig charges 100µs per operation.
func DefaultConfig() Config { return Config{RTT: 100 * time.Microsecond} }

// Engine wraps an inner engine with per-operation latency. It implements
// core.Engine.
type Engine struct {
	inner core.Engine
	cfg   Config
}

// New wraps inner.
func New(inner core.Engine, cfg Config) *Engine {
	if cfg.RTT <= 0 {
		cfg = DefaultConfig()
	}
	return &Engine{inner: inner, cfg: cfg}
}

// Name implements core.Engine.
func (e *Engine) Name() string { return e.inner.Name() + "/interactive" }

// Database implements core.Engine.
func (e *Engine) Database() *core.DB { return e.inner.Database() }

// NewSession implements core.Engine.
func (e *Engine) NewSession(worker int, col *stats.Collector) core.Session {
	return &session{inner: e.inner.NewSession(worker, col), cfg: e.cfg}
}

type session struct {
	inner core.Session
	cfg   Config
}

// Run implements core.Session: it wraps the transaction body so every Tx
// operation sleeps one round trip before reaching the real engine, and
// each attempt pays begin and commit round trips.
func (s *session) Run(fn core.TxnFunc) error {
	return s.inner.Run(func(tx core.Tx) error {
		sleep(s.cfg.RTT) // begin request
		err := fn(&latencyTx{Tx: tx, rtt: s.cfg.RTT})
		sleep(s.cfg.RTT) // commit/abort request
		return err
	})
}

// latencyTx charges one round trip per operation.
type latencyTx struct {
	core.Tx
	rtt time.Duration
}

// Read implements core.Tx.
func (t *latencyTx) Read(row *storage.Row) ([]byte, error) {
	sleep(t.rtt)
	return t.Tx.Read(row)
}

// Update implements core.Tx.
func (t *latencyTx) Update(row *storage.Row, mutate func([]byte)) error {
	sleep(t.rtt)
	return t.Tx.Update(row, mutate)
}

// Insert implements core.Tx.
func (t *latencyTx) Insert(tbl *storage.Table, key uint64, img []byte) error {
	sleep(t.rtt)
	return t.Tx.Insert(tbl, key, img)
}

// DeclareOps is swallowed: interactive servers do not know access lists
// ahead of time (paper §5.1), so every write is treated as the last one
// and retires immediately.
func (t *latencyTx) DeclareOps(int) {}

// MarkReadOnly forwards the snapshot-mode opt-in to the wrapped engine.
// latencyTx embeds the Tx interface, whose method set does not include
// MarkReadOnly, so without this forward core.MarkReadOnly would never
// see the underlying transaction. Snapshot reads are lock-free on the
// server but still pay the per-operation round trip.
func (t *latencyTx) MarkReadOnly() bool { return core.MarkReadOnly(t.Tx) }

// sleep waits for very short durations by spinning (timer granularity on
// Linux makes time.Sleep overshoot badly below ~100µs) and sleeps
// otherwise. The spin yields the processor each iteration: a network
// stall must not consume a core, or on hosts with fewer cores than
// workers every protocol degenerates to the same CPU-bound throughput
// and the lock-holding differences interactive mode exists to expose
// (paper §5.1) disappear. On an unloaded host Gosched returns
// immediately and the spin stays wall-clock accurate.
func sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if d >= 500*time.Microsecond {
		time.Sleep(d)
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}
