// Package wal implements the write-ahead log used at commit time. The
// paper's experiments "log to main memory — modern non-volatile memory
// would offer similar performance" (§5.1); the default device here is an
// in-memory buffer with the same serialization cost a real device would
// see, and FileDevice puts the log on real files.
//
// A commit writes its record only after the concurrency-control protocol
// is satisfied (commit_semaphore drained), as under conventional 2PL
// (paper §3.4), and then releases its locks as early as it can: before
// its record reaches the file. Submit sequences the record — on a
// FileDevice, an LSN and a copy in the device's pending buffer, no
// syscall — while the transaction still holds its locks, so a
// transaction that reads or overwrites its writes after the release
// sequences its own record later. The commit then releases and waits on
// its Ticket, which writes the pending frames (one Write for all of
// them, by whichever committer gets there first) and, under FsyncBatch,
// waits for the sync that covers them. This is early lock release
// (Johnson et al., "Aether", VLDB 2010): the file is always a prefix of
// the sequence, and a commit is acknowledged only once its record is
// written (or synced), so no acknowledged commit depends on a record the
// log lacks. On any other device, Submit appends the record there and
// then; the Ticket has nothing left to wait for.
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
	"sync"
	"time"

	"bamboo/internal/txn"
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

// ErrClosed is returned by appends to a closed device.
var ErrClosed = errors.New("wal: log closed")

// DeviceStats is the durability telemetry a device accumulates: how many
// records landed, how many payload bytes, in how many writes, and how
// many fsyncs (the cost a syncer amortizes) at what wall time.
type DeviceStats struct {
	Appends  uint64        // records appended
	Bytes    uint64        // payload bytes appended (excluding framing)
	Writes   uint64        // write calls that put them in a file
	Syncs    uint64        // fsync operations issued
	SyncTime time.Duration // total wall time spent inside fsync
}

// Add returns the element-wise sum of s and o.
func (s DeviceStats) Add(o DeviceStats) DeviceStats {
	return DeviceStats{
		Appends:  s.Appends + o.Appends,
		Bytes:    s.Bytes + o.Bytes,
		Writes:   s.Writes + o.Writes,
		Syncs:    s.Syncs + o.Syncs,
		SyncTime: s.SyncTime + o.SyncTime,
	}
}

// StatsDevice is optionally implemented by devices that report
// DeviceStats; the benchmark harness surfaces them per point.
type StatsDevice interface {
	Stats() DeviceStats
}

// Log serializes commit records and appends them to a device. It is safe
// for concurrent use; serialization happens outside the device lock.
type Log struct {
	dev  Device
	file *FileDevice // non-nil: Submit only sequences; Ticket.Wait writes
}

// New returns a log over the given device. Records submitted to a
// FileDevice are written by Ticket.Wait, and under FsyncBatch synced
// before it returns; on any other device a record is as durable as it
// will be once Submit returns.
func New(dev Device) *Log {
	l := &Log{dev: dev}
	l.file, _ = dev.(*FileDevice)
	return l
}

// Through returns a Ticket for every record sequenced on l through lsn.
func (l *Log) Through(lsn uint64) Ticket { return Ticket{dev: l.file, lsn: lsn} }

// Appender is a per-worker commit handle owning a reusable encode buffer,
// so steady-state commits allocate nothing. Not safe for concurrent use;
// each worker session owns one.
type Appender struct {
	l   *Log
	buf []byte
}

// NewAppender returns a commit handle for one worker.
func (l *Log) NewAppender() *Appender { return &Appender{l: l} }

// Mark returns a Ticket for every record sequenced on a's log so far:
// its Wait returns once they are all written, and synced under
// FsyncBatch. On a log whose device is no FileDevice every record is
// appended by the time Submit returns, and the Ticket waits for nothing.
func (a *Appender) Mark() Ticket {
	if d := a.l.file; d != nil {
		return a.l.Through(d.lsn.Load())
	}
	return Ticket{}
}

// Commit encodes rec into the appender's buffer and commits it, returning
// its LSN once it is written (and synced under FsyncBatch): a Submit
// whose Ticket it waits on.
//
// The encode copies rec's payloads — including row images — into the
// appender's own buffer before anything crosses the device boundary, so
// the log never retains a reference to a caller's row image past
// Commit's (or Submit's) return. That no-retain contract is what lets
// the engine share one immutable image buffer between the lock table,
// the version chain and the WAL, and recycle it at release without
// consulting the log.
func (a *Appender) Commit(rec *Record) (uint64, error) {
	return a.Submit(rec).Wait(nil)
}

// Submit encodes rec and sequences it, without writing it to a
// FileDevice or waiting for durability; the returned Ticket's Wait does
// both. A commit submits while it holds its locks and waits after it
// releases them. A transaction whose writes span several partition logs
// submits to all of them before it waits on any, so their devices' syncs
// overlap instead of stacking. On any other device Submit appends rec.
// The encode buffer is free again once Submit returns.
func (a *Appender) Submit(rec *Record) Ticket {
	a.buf = AppendRecord(a.buf[:0], rec)
	if d := a.l.file; d != nil {
		lsn, err := d.sequence(a.buf)
		return Ticket{dev: d, lsn: lsn, err: err}
	}
	lsn, err := a.l.dev.Append(a.buf)
	return Ticket{lsn: lsn, err: err}
}

// Ticket is a pending submission. The zero value Waits as an immediate
// (lsn 0, nil) result, so a fixed-size ticket scratch array can be waited
// on wholesale.
type Ticket struct {
	dev *FileDevice // nil: the record is as durable as it gets
	lsn uint64
	err error
}

// Err is the submission's failure — on a FileDevice, its sticky error
// or ErrClosed. A ticket that carries one has nothing to wait for.
func (t Ticket) Err() error { return t.err }

// Wait returns the record's LSN once it is written — and synced, under
// FsyncBatch — or the device's failure. w is the waiting transaction:
// when another committer is writing the record, w waits for that write
// the way txn.Txn.Wait waits, polling first if its Waiter's gate is open.
// A nil w waits as a fresh transaction, which never polls.
func (t Ticket) Wait(w *txn.Txn) (uint64, error) {
	if t.dev == nil || t.err != nil {
		return t.lsn, t.err
	}
	if err := t.dev.writeThrough(t.lsn, w); err != nil {
		return t.lsn, err
	}
	if t.dev.policy == FsyncBatch {
		return t.lsn, t.dev.waitSynced(t.lsn)
	}
	return t.lsn, nil
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
	record  bool
	records [][]byte
}

// NewMemDevice returns an in-memory device.
func NewMemDevice(record bool) *MemDevice { return &MemDevice{record: record} }

// Append implements Device.
func (d *MemDevice) Append(rec []byte) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.lsn++
	d.bytes += uint64(len(rec))
	if d.record {
		// Copy: the caller reuses its encode buffer (Device contract).
		d.records = append(d.records, bytes.Clone(rec))
	}
	return d.lsn, nil
}

// Stats implements StatsDevice. A memory device never syncs.
func (d *MemDevice) Stats() DeviceStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DeviceStats{Appends: d.lsn, Bytes: d.bytes}
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
