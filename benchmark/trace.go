package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bamboo/internal/core"
	"bamboo/internal/stats"
	"bamboo/internal/storage"
	"bamboo/internal/wal"
)

// The traced run times the engine from outside: a core.Session wrapper
// opens a root span per logical transaction, a core.Tx wrapper opens a
// child span per Read/Update/Insert and marks attempt boundaries, and a
// wal.Device wrapper opens a span per log append. The span tree of one
// transaction is
//
//	core.run
//	├─ core.attempt          one per execution of the body
//	│  └─ core.tx_read | core.tx_update | core.tx_insert
//	└─ core.commit_path      end of the committing body → Run returns
//	   └─ wal.append
//
// Spans feed a count/sum aggregate under their name, and core.run a
// histogram per transaction class. **One transaction in tracedEvery is
// traced**, chosen by transaction id; on the others the wrappers only
// forward. Tracing every transaction costs two clock reads per operation
// inside the span where locks are held, a fifth of hotspot_ww's lock hold
// time, and that pushes its waiter out of lock.Backoff's spin phase into
// its sleeps and halves throughput: the trace would describe a different
// system. One transaction in keptEvery (a multiple of tracedEvery) also
// keeps its spans for the trace file.

const (
	tracedEvery = 8
	keptEvery   = 256
)

type spanKind int

const (
	spanRun spanKind = iota
	spanAttempt
	spanRead
	spanUpdate
	spanInsert
	spanCommitPath
	spanWALAppend
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"core.run", "core.attempt", "core.tx_read", "core.tx_update",
	"core.tx_insert", "core.commit_path", "wal.append",
}

// agg is the aggregate of one span name.
type agg struct {
	n   uint64
	sum int64
}

func (a *agg) add(d int64) {
	a.n++
	a.sum += d
}

func (a *agg) merge(o *agg) {
	a.n += o.n
	a.sum += o.sum
}

// span is one kept span; times are nanoseconds since the traced window's
// DB was opened. Spans of one transaction share Txn.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Txn     uint64 `json:"txn"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// Transaction classes for the per-class run medians.
const (
	classRO       = iota // body called neither Update nor Insert
	classRW              // body called Update
	classPayment         // exactly one Insert (TPC-C Payment's history row)
	classNewOrder        // two or more Inserts
	numClasses
)

// traceTotals are one worker's aggregates over the traced, committed
// transactions of the timed part (the Tx-call spans also count the calls
// of their aborted attempts); merged across workers after the run.
type traceTotals struct {
	spans      [numSpanKinds]agg
	retry      int64 // start of Run → start of the committing body
	bodySelf   int64 // committing body minus the Tx calls inside it
	covered    int64 // time inside any attempt or the commit path
	attemptSum uint64
	class      [numClasses]stats.Hist
	kept       []span
}

func (t *traceTotals) merge(o *traceTotals) {
	for k := range t.spans {
		t.spans[k].merge(&o.spans[k])
	}
	t.retry += o.retry
	t.bodySelf += o.bodySelf
	t.covered += o.covered
	t.attemptSum += o.attemptSum
	for c := range t.class {
		t.class[c].Merge(&o.class[c])
	}
	t.kept = append(t.kept, o.kept...)
}

// workerTrace is one worker's tracer: the totals plus the state of the
// transaction in flight. Owned by the worker goroutine.
type workerTrace struct {
	epoch time.Time
	idTop uint64 // worker tag in the high bits of span ids
	seq   uint64
	traceTotals

	fn           core.TxnFunc
	tx           tracedTx
	runStart     int64
	attemptStart int64
	bodyEnd      int64
	attemptTime  int64 // all attempts of this transaction
	txTime       int64 // Tx calls of the current attempt
	attempts     int
	updates      int
	inserts      int
	userAbort    bool
	txn          uint64
	traced       bool // this transaction is one in tracedEvery
	keep         bool // and one in keptEvery
	rootID       uint64
	attemptID    uint64
	cur          []span
}

func newWorkerTrace(worker int, epoch time.Time) *workerTrace {
	w := &workerTrace{epoch: epoch, idTop: uint64(worker+1) << 48}
	w.tx.w = w
	return w
}

func (w *workerTrace) now() int64 { return int64(time.Since(w.epoch)) }

func (w *workerTrace) newID() uint64 {
	w.seq++
	return w.idTop | w.seq
}

// reset drops everything recorded so far (the warm-up).
func (w *workerTrace) reset() { w.traceTotals = traceTotals{} }

// tracedSession wraps a core.Session with the root span.
type tracedSession struct {
	inner core.Session
	w     *workerTrace
	body  core.TxnFunc // w.attempt, bound once so Run does not allocate
}

func newTracedSession(inner core.Session, w *workerTrace) *tracedSession {
	return &tracedSession{inner: inner, w: w, body: w.attempt}
}

// Run implements core.Session. The transaction id, hence whether this
// transaction is traced, is only known once the engine calls the body, so
// the root span's start is read on every transaction.
func (s *tracedSession) Run(fn core.TxnFunc) error {
	w := s.w
	w.fn = fn
	w.attempts = 0
	w.runStart = w.now()
	err := s.inner.Run(s.body)
	if w.traced {
		w.finish(err)
	}
	return err
}

// attempt is the body handed to the engine: one call per attempt.
func (w *workerTrace) attempt(tx core.Tx) error {
	w.attempts++
	if w.attempts == 1 {
		w.txn = tx.ID()
		w.traced = w.txn%tracedEvery == 0
		w.keep = w.txn%keptEvery == 0
		w.attemptTime = 0
		w.cur = w.cur[:0]
		if w.keep {
			w.rootID = w.newID()
		}
	}
	if !w.traced {
		return w.fn(tx)
	}
	start := w.now()
	if w.keep {
		w.attemptID = w.newID()
	}
	w.attemptStart = start
	w.txTime, w.updates, w.inserts = 0, 0, 0
	w.tx.Tx = tx
	err := w.fn(&w.tx)
	w.bodyEnd = w.now()
	w.userAbort = err != nil && errors.Is(err, core.ErrUserAbort)
	d := w.bodyEnd - start
	w.attemptTime += d
	w.spans[spanAttempt].add(d)
	if w.keep {
		w.cur = append(w.cur, span{ID: w.attemptID, Parent: w.rootID, Txn: w.txn,
			Name: spanNames[spanAttempt], StartNS: start, EndNS: w.bodyEnd})
	}
	return err
}

// call closes the span of one Tx call that began at start.
func (w *workerTrace) call(kind spanKind, start int64) {
	end := w.now()
	w.spans[kind].add(end - start)
	w.txTime += end - start
	if w.keep {
		w.cur = append(w.cur, span{ID: w.newID(), Parent: w.attemptID, Txn: w.txn,
			Name: spanNames[kind], StartNS: start, EndNS: end})
	}
}

// finish closes the root span of a traced transaction. Run returns nil for
// commits and for user aborts (TPC-C's 1 % rollbacks); only commits enter
// the per-transaction aggregates.
func (w *workerTrace) finish(err error) {
	end := w.now()
	if err != nil || w.userAbort {
		return
	}
	commitPath := end - w.bodyEnd
	w.spans[spanRun].add(end - w.runStart)
	w.spans[spanCommitPath].add(commitPath)
	w.retry += w.attemptStart - w.runStart
	w.bodySelf += w.bodyEnd - w.attemptStart - w.txTime
	w.covered += w.attemptTime + commitPath
	w.attemptSum += uint64(w.attempts)
	run := time.Duration(end - w.runStart)
	switch {
	case w.inserts >= 2:
		w.class[classNewOrder].Record(run)
	case w.inserts == 1:
		w.class[classPayment].Record(run)
	}
	if w.updates > 0 {
		w.class[classRW].Record(run)
	} else if w.inserts == 0 {
		w.class[classRO].Record(run)
	}
	if w.keep {
		w.kept = append(w.kept, span{ID: w.rootID, Txn: w.txn,
			Name: spanNames[spanRun], StartNS: w.runStart, EndNS: end})
		w.kept = append(w.kept, w.cur...)
		w.kept = append(w.kept, span{ID: w.newID(), Parent: w.rootID, Txn: w.txn,
			Name: spanNames[spanCommitPath], StartNS: w.bodyEnd, EndNS: end})
	}
}

// tracedTx wraps the engine's Tx with one child span per operation (the
// shape rpcsim.latencyTx uses). Only traced transactions see it.
type tracedTx struct {
	core.Tx
	w *workerTrace
}

// Read implements core.Tx.
func (t *tracedTx) Read(row *storage.Row) ([]byte, error) {
	start := t.w.now()
	img, err := t.Tx.Read(row)
	t.w.call(spanRead, start)
	return img, err
}

// Update implements core.Tx.
func (t *tracedTx) Update(row *storage.Row, mutate func([]byte)) error {
	t.w.updates++
	start := t.w.now()
	err := t.Tx.Update(row, mutate)
	t.w.call(spanUpdate, start)
	return err
}

// Insert implements core.Tx.
func (t *tracedTx) Insert(tbl *storage.Table, key uint64, img []byte) error {
	t.w.inserts++
	start := t.w.now()
	err := t.Tx.Insert(tbl, key, img)
	t.w.call(spanInsert, start)
	return err
}

// MarkReadOnly forwards the snapshot-mode opt-in: the embedded interface
// does not carry it, so core.MarkReadOnly would otherwise never reach the
// engine's transaction and ycsb_snapshot would trace the locking path.
func (t *tracedTx) MarkReadOnly() bool { return core.MarkReadOnly(t.Tx) }

// tracedDevice wraps the log device with the wal.append span, on the same
// one-in-tracedEvery transactions: the append sits inside the commit path,
// where every lock is still held, and the aggregate below is shared by all
// workers.
type tracedDevice struct {
	inner wal.Device
	epoch time.Time

	mu   sync.Mutex
	agg  agg
	kept []span
	seq  uint64
}

// Append implements wal.Device. An encoded record starts with its
// transaction id, which is what ties the span to its transaction.
func (d *tracedDevice) Append(rec []byte) (uint64, error) {
	if len(rec) < 8 {
		return d.inner.Append(rec)
	}
	txn := binary.LittleEndian.Uint64(rec)
	if txn%tracedEvery != 0 {
		return d.inner.Append(rec)
	}
	start := int64(time.Since(d.epoch))
	lsn, err := d.inner.Append(rec)
	end := int64(time.Since(d.epoch))
	d.mu.Lock()
	d.agg.add(end - start)
	if txn%keptEvery == 0 {
		d.seq++
		d.kept = append(d.kept, span{ID: d.seq, Txn: txn,
			Name: spanNames[spanWALAppend], StartNS: start, EndNS: end})
	}
	d.mu.Unlock()
	return lsn, err
}

// Stats implements wal.StatsDevice so DB.WALStats keeps working.
func (d *tracedDevice) Stats() wal.DeviceStats {
	if sd, ok := d.inner.(wal.StatsDevice); ok {
		return sd.Stats()
	}
	return wal.DeviceStats{}
}

// Close closes a file-backed inner device; DB.Close calls it.
func (d *tracedDevice) Close() error {
	if c, ok := d.inner.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// reset drops the warm-up's appends.
func (d *tracedDevice) reset() {
	d.mu.Lock()
	d.agg = agg{}
	d.kept = d.kept[:0]
	d.mu.Unlock()
}

// collect merges the workers' totals with the device's, parenting each
// kept wal.append span under its transaction's commit path.
func collectTrace(workers []*workerTrace, dev *tracedDevice) *traceTotals {
	var t traceTotals
	for _, w := range workers {
		t.merge(&w.traceTotals)
	}
	dev.mu.Lock()
	defer dev.mu.Unlock()
	t.spans[spanWALAppend].merge(&dev.agg)
	commitPath := make(map[uint64]uint64, len(t.kept)/4)
	for _, s := range t.kept {
		if s.Name == spanNames[spanCommitPath] {
			commitPath[s.Txn] = s.ID
		}
	}
	for _, s := range dev.kept {
		// A transaction that straddled the warm-up boundary has its append
		// here but no root on the worker side; drop the orphan.
		if parent, ok := commitPath[s.Txn]; ok {
			s.Parent = parent
			t.kept = append(t.kept, s)
		}
	}
	return &t
}

// traceFile is the layout of out/trace-<workload>.json.
type traceFile struct {
	Workload    string `json:"workload"`
	SampleEvery int    `json:"sample_every"`
	Clock       string `json:"clock"`
	Spans       []span `json:"spans"`
}

func writeTraceFile(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	buf, err := json.Marshal(traceFile{
		Workload:    workload,
		SampleEvery: keptEvery,
		Clock:       "ns since the traced window's DB was opened",
		Spans:       spans,
	})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, buf, 0o644)
}
