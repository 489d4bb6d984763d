// Package wal implements the write-ahead log used at commit time. The
// paper's experiments "log to main memory — modern non-volatile memory
// would offer similar performance" (§5.1); the default device here is an
// in-memory buffer with the same serialization cost a real device would
// see, and FileDevice puts the log on real files.
//
// Bamboo requires no special logging treatment (paper §3.4): a transaction
// writes its commit record only after the concurrency-control protocol is
// satisfied (commit_semaphore drained), exactly like conventional 2PL.
//
// Two commit disciplines are supported:
//
//   - per-record (New): every commit appends straight to the device;
//   - group commit (NewGroupCommit): committers hand their encoded record
//     to a background flusher and block until the epoch containing it is
//     durable, so one device write covers a whole batch of transactions.
//
// For the zero-allocation hot path, workers encode records into reusable
// per-worker buffers through Appender handles; Device implementations must
// therefore not retain the byte slice passed to Append past its return.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Record is one commit record: the transaction id and its after-images.
type Record struct {
	TxnID  uint64
	Writes []Write
}

// Write is one tuple after-image inside a commit record.
type Write struct {
	Table string
	Key   uint64
	Image []byte
}

// Device is the destination of serialized commit records.
//
// Append must not retain rec after it returns: callers reuse the buffer
// for the next record.
type Device interface {
	// Append durably appends one serialized record and returns its LSN.
	Append(rec []byte) (lsn uint64, err error)
}

// BatchDevice is optionally implemented by devices that can make a whole
// batch of records durable in one operation; the group committer uses it
// to amortize per-append costs. AppendBatch returns the LSN of the last
// record in the batch. The no-retention rule of Append applies.
type BatchDevice interface {
	AppendBatch(recs [][]byte) (lastLSN uint64, err error)
}

// ErrClosed is returned by commits after Close.
var ErrClosed = errors.New("wal: log closed")

// DeviceStats is the durability telemetry a device accumulates: how many
// records landed, in how many device write operations (the quantity group
// commit amortizes), how many payload bytes, and what the fsyncs cost.
type DeviceStats struct {
	Appends  uint64        // records appended
	Batches  uint64        // device write operations (Append/AppendBatch calls)
	Bytes    uint64        // payload bytes appended (excluding framing)
	Syncs    uint64        // fsync operations issued
	SyncTime time.Duration // total wall time spent inside fsync
}

// Add returns the element-wise sum of s and o.
func (s DeviceStats) Add(o DeviceStats) DeviceStats {
	return DeviceStats{
		Appends:  s.Appends + o.Appends,
		Batches:  s.Batches + o.Batches,
		Bytes:    s.Bytes + o.Bytes,
		Syncs:    s.Syncs + o.Syncs,
		SyncTime: s.SyncTime + o.SyncTime,
	}
}

// StatsDevice is optionally implemented by devices that report
// DeviceStats; the benchmark harness surfaces them per point.
type StatsDevice interface {
	Stats() DeviceStats
}

// Log serializes commit records and appends them to a device, either
// per-record or through an epoch-based group committer. It is safe for
// concurrent use; serialization happens outside the device lock.
type Log struct {
	dev Device
	gc  *groupCommitter // nil = per-record commits
}

// New returns a per-record log over the given device.
func New(dev Device) *Log { return &Log{dev: dev} }

// NewGroupCommit returns a log whose commits are batched by a background
// flusher: an epoch closes once the flusher has seen pending records and
// yielded the processor once, and records arriving while a flush is in
// progress form the next batch. Close must be called to stop the flusher.
func NewGroupCommit(dev Device) *Log {
	l := &Log{dev: dev, gc: newGroupCommitter(dev)}
	go l.gc.loop()
	return l
}

// submit registers enc without waiting for durability; Ticket.Wait blocks
// until the epoch containing it is flushed. Per-record logs append (and
// are durable) inside submit itself, so Wait is immediate.
func (l *Log) submit(enc []byte) Ticket {
	if l.gc != nil {
		epoch, err := l.gc.submit(enc)
		return Ticket{gc: l.gc, epoch: epoch, err: err}
	}
	lsn, err := l.dev.Append(enc)
	return Ticket{lsn: lsn, err: err}
}

// Close stops the group-commit flusher after draining pending records.
// It is a no-op for per-record logs. Commits issued after Close fail with
// ErrClosed.
func (l *Log) Close() error {
	if l.gc == nil {
		return nil
	}
	return l.gc.close()
}

// Appender is a per-worker commit handle owning a reusable encode buffer,
// so steady-state commits allocate nothing. Not safe for concurrent use;
// each worker session owns one.
type Appender struct {
	l   *Log
	buf []byte
}

// NewAppender returns a commit handle for one worker.
func (l *Log) NewAppender() *Appender { return &Appender{l: l} }

// Commit encodes rec into the appender's buffer and commits it, returning
// its LSN (in group-commit mode: the last LSN of the flushed batch) — a
// Submit whose Ticket it waits on. The buffer is reused on the next call,
// which is safe under the Device no-retention rule and because group
// commit blocks until the flush that covers the record completes.
//
// The encode copies rec's payloads — including row images — into the
// appender's own buffer before anything crosses the device boundary, so
// the log never retains a reference to a caller's row image past
// Commit's (or Submit's) return. That no-retain contract is what lets
// the engine share one immutable image buffer between the lock table,
// the version chain and the WAL, and recycle it at release without
// consulting the log.
func (a *Appender) Commit(rec *Record) (uint64, error) {
	return a.Submit(rec).Wait()
}

// Submit encodes rec and registers it for commit without waiting for
// durability; the returned Ticket's Wait blocks until the record is. It
// exists so a transaction whose writes span several partition logs can
// submit to all of them and overlap their group-commit flushes instead of
// paying one full epoch wait per log.
//
// At most one Ticket may be outstanding per Appender: the encode buffer
// is retained by the flusher until the covering flush completes, so the
// caller must Wait before the next Submit or Commit on this appender.
func (a *Appender) Submit(rec *Record) Ticket {
	a.buf = AppendRecord(a.buf[:0], rec)
	return a.l.submit(a.buf)
}

// Ticket is a pending submission. The zero value Waits as an immediate
// (lsn 0, nil) result, so a fixed-size ticket scratch array can be waited
// on wholesale.
type Ticket struct {
	gc    *groupCommitter // nil: lsn/err already final
	epoch uint64
	lsn   uint64
	err   error
}

// Wait blocks until the submitted record is durable, returning its LSN
// (group commit: the last LSN of the covering batch).
func (t Ticket) Wait() (uint64, error) {
	if t.gc == nil || t.err != nil {
		return t.lsn, t.err
	}
	return t.gc.waitEpoch(t.epoch)
}

// groupCommitter implements epoch-based group commit: committers append
// their encoded record to the pending batch of the open epoch and sleep
// until the flusher reports that epoch durable. The flusher closes an
// epoch, writes its whole batch with one (batched, if supported) device
// call, then wakes every committer that was in it.
type groupCommitter struct {
	dev Device

	mu      sync.Mutex
	work    sync.Cond // signaled when pending work or close arrives
	flushed sync.Cond // broadcast when durable advances
	pending [][]byte  // records of the open epoch
	spare   [][]byte  // recycled batch slice
	epoch   uint64    // open epoch number
	durable uint64    // last durable epoch
	lastLSN uint64    // device LSN of the last flushed record
	err     error     // sticky flush error, reported to all waiters
	closed  bool
	done    bool // flusher exited
}

func newGroupCommitter(dev Device) *groupCommitter {
	g := &groupCommitter{dev: dev, epoch: 1}
	g.work.L = &g.mu
	g.flushed.L = &g.mu
	return g
}

// submit registers enc in the open epoch and returns that epoch number;
// enc must remain unmodified until waitEpoch(epoch) returns.
func (g *groupCommitter) submit(enc []byte) (uint64, error) {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return 0, ErrClosed
	}
	e := g.epoch
	g.pending = append(g.pending, enc)
	if len(g.pending) == 1 {
		g.work.Signal()
	}
	g.mu.Unlock()
	return e, nil
}

// waitEpoch blocks until epoch e is durable. It waits even when a sticky
// error from an earlier epoch is already set: returning while a submitted
// record is still queued would let the caller reuse its encode buffer
// under the flusher's feet. durable advances past e on every flush
// (success or failure), so this always terminates; the flusher never
// exits with records still pending.
func (g *groupCommitter) waitEpoch(e uint64) (uint64, error) {
	g.mu.Lock()
	for g.durable < e && !g.done {
		g.flushed.Wait()
	}
	lsn, err := g.lastLSN, g.err
	if err == nil && g.durable < e {
		err = ErrClosed // flusher exited without covering our epoch
	}
	g.mu.Unlock()
	return lsn, err
}

func (g *groupCommitter) close() error {
	g.mu.Lock()
	g.closed = true
	g.work.Signal()
	for !g.done {
		g.flushed.Wait()
	}
	err := g.err
	g.mu.Unlock()
	return err
}

func (g *groupCommitter) loop() {
	g.mu.Lock()
	for {
		for len(g.pending) == 0 && !g.closed {
			g.work.Wait()
		}
		if len(g.pending) == 0 && g.closed {
			g.done = true
			g.flushed.Broadcast()
			g.mu.Unlock()
			return
		}
		// Yield once before closing the epoch. The first record's Signal
		// makes the flusher runnable while the other committers are
		// still encoding theirs; on few cores it would otherwise close
		// every epoch with one record in it (one device write per
		// commit). The yield lets every runnable committer join and,
		// unlike a timed window, costs nothing when none is runnable.
		g.mu.Unlock()
		runtime.Gosched()
		g.mu.Lock()
		batch := g.pending
		g.pending = g.spare[:0]
		e := g.epoch
		g.epoch++
		g.mu.Unlock()

		lsn, err := flushBatch(g.dev, batch)

		for i := range batch {
			batch[i] = nil
		}
		g.mu.Lock()
		g.spare = batch[:0]
		g.durable = e
		if lsn != 0 {
			g.lastLSN = lsn
		}
		if err != nil && g.err == nil {
			g.err = err
		}
		g.flushed.Broadcast()
	}
}

func flushBatch(dev Device, batch [][]byte) (uint64, error) {
	if bd, ok := dev.(BatchDevice); ok {
		return bd.AppendBatch(batch)
	}
	var lsn uint64
	for _, rec := range batch {
		l, err := dev.Append(rec)
		if err != nil {
			return lsn, err
		}
		lsn = l
	}
	return lsn, nil
}

// AppendRecord serializes rec onto buf and returns the extended slice;
// the zero-allocation path once buf's capacity has grown to the
// workload's record size. The format:
//
//	txnID u64 | nWrites u32 | { tableLen u16 table | key u64 | imgLen u32 img }*
func AppendRecord(buf []byte, rec *Record) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, rec.TxnID)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Writes)))
	for _, w := range rec.Writes {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(w.Table)))
		buf = append(buf, w.Table...)
		buf = binary.LittleEndian.AppendUint64(buf, w.Key)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(w.Image)))
		buf = append(buf, w.Image...)
	}
	return buf
}

// ErrCorrupt is returned by Decode for structurally malformed records
// (trailing bytes, write counts that cannot fit the buffer): content that
// no torn write could have produced.
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrTornRecord is returned by Decode when the buffer ends before the
// record's declared content — the shape a crash mid-append leaves behind.
// Recovery treats a torn record at the log tail as the end of the log;
// anywhere else it is corruption.
var ErrTornRecord = errors.New("wal: torn record")

// Decode parses a serialized record. All length arithmetic is done in
// uint64 so a hostile length prefix cannot overflow into a short bounds
// check and misparse (or panic on) the remainder of the buffer.
func Decode(buf []byte) (*Record, error) {
	n := uint64(len(buf))
	if n < 12 {
		return nil, fmt.Errorf("%w: %d bytes, header needs 12", ErrTornRecord, n)
	}
	rec := &Record{TxnID: binary.LittleEndian.Uint64(buf)}
	nw := binary.LittleEndian.Uint32(buf[8:])
	// A count past any plausible transaction is a garbage length prefix,
	// not a truncation; reject it as corruption outright. (Truncation
	// safety does not depend on this cap — every loop iteration below
	// consumes ≥14 bytes or returns ErrTornRecord, so iterations are
	// bounded by the buffer size regardless of the claimed count.)
	if nw > MaxRecordWrites {
		return nil, fmt.Errorf("%w: write count %d overflows the %d cap", ErrCorrupt, nw, MaxRecordWrites)
	}
	own := bytes.Clone(buf) // one copy for every image, not one per write
	var table string        // the previous write's, reused while it repeats
	off := uint64(12)
	for i := uint32(0); i < nw; i++ {
		if 2 > n-off {
			return nil, fmt.Errorf("%w: write %d of %d truncated", ErrTornRecord, i, nw)
		}
		tl := uint64(binary.LittleEndian.Uint16(buf[off:]))
		off += 2
		if tl > n-off || 12 > n-off-tl {
			return nil, fmt.Errorf("%w: write %d of %d truncated", ErrTornRecord, i, nw)
		}
		if string(buf[off:off+tl]) != table {
			table = string(buf[off : off+tl])
		}
		off += tl
		key := binary.LittleEndian.Uint64(buf[off:])
		off += 8
		il := uint64(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		if il > n-off {
			return nil, fmt.Errorf("%w: write %d image needs %d bytes, %d left", ErrTornRecord, i, il, n-off)
		}
		var img []byte
		if il > 0 {
			img = own[off : off+il : off+il]
		}
		off += il
		rec.Writes = append(rec.Writes, Write{Table: table, Key: key, Image: img})
	}
	if off != n {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, n-off)
	}
	return rec, nil
}

// MaxRecordWrites caps the per-record write count Decode accepts; counts
// above it are length-prefix garbage (ErrCorrupt), not truncations.
const MaxRecordWrites = 1 << 24

// MemDevice is an in-memory log device. With record=false it only counts
// appends (the benchmark configuration: pay serialization cost, keep no
// unbounded history); with record=true it retains copies of the records
// for recovery tests.
type MemDevice struct {
	mu      sync.Mutex
	lsn     uint64
	bytes   uint64
	batches uint64
	record  bool
	records [][]byte
}

// NewMemDevice returns an in-memory device.
func NewMemDevice(record bool) *MemDevice { return &MemDevice{record: record} }

// Append implements Device.
func (d *MemDevice) Append(rec []byte) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.batches++
	return d.appendLocked(rec), nil
}

// AppendBatch implements BatchDevice: the whole batch is made durable
// under one lock acquisition.
func (d *MemDevice) AppendBatch(recs [][]byte) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.batches++
	var lsn uint64
	for _, rec := range recs {
		lsn = d.appendLocked(rec)
	}
	return lsn, nil
}

func (d *MemDevice) appendLocked(rec []byte) uint64 {
	d.lsn++
	d.bytes += uint64(len(rec))
	if d.record {
		// Copy: the caller reuses its encode buffer (Device contract).
		cp := make([]byte, len(rec))
		copy(cp, rec)
		d.records = append(d.records, cp)
	}
	return d.lsn
}

// Stats implements StatsDevice. A memory device never syncs.
func (d *MemDevice) Stats() DeviceStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DeviceStats{Appends: d.lsn, Batches: d.batches, Bytes: d.bytes}
}

// Records returns decoded copies of all retained records.
func (d *MemDevice) Records() ([]*Record, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*Record, 0, len(d.records))
	for _, b := range d.records {
		r, err := Decode(b)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
