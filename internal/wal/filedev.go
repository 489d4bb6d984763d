package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bamboo/internal/txn"
)

// FsyncPolicy selects when a FileDevice forces its appends to stable
// storage.
type FsyncPolicy int

const (
	// FsyncNone never syncs: appends go to the OS page cache only. The
	// data survives a process crash (the kernel has it) but not a power
	// loss; the policy isolates the cost of the write path itself.
	FsyncNone FsyncPolicy = iota
	// FsyncBatch makes every commit durable before it returns: the
	// device's syncer fsyncs everything written so far and wakes the
	// commits that sync covers, so concurrent commits share one fsync.
	FsyncBatch
	// FsyncInterval lets the syncer fsync at most once per interval and
	// commits do not wait for it: bounded data loss at a bounded sync
	// rate.
	FsyncInterval
)

// String implements fmt.Stringer.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncNone:
		return "none"
	case FsyncBatch:
		return "batch"
	case FsyncInterval:
		return "interval"
	default:
		return fmt.Sprintf("fsync(%d)", int(p))
	}
}

// ParseFsyncPolicy parses the String form (flag values).
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "none", "":
		return FsyncNone, nil
	case "batch":
		return FsyncBatch, nil
	case "interval":
		return FsyncInterval, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want none, batch or interval)", s)
	}
}

// FileDevice is a log device over append-only files, framing records as
// frame.go describes, which is what Replay reads.
//
// An append is two steps. Sequencing copies the frame into the device's
// pending buffer and gives it the next LSN, under the device latch and
// without a syscall. Writing puts every pending frame into the file with
// one Write call, in LSN order, by whichever committer gets there first;
// a committer whose frame another one is writing waits for that write
// (txn.Txn.Wait: poll, yield, park) and then writes what is left, if
// anything. The file is therefore always a prefix of the sequence, and a
// crash leaves at most one torn frame — and only at the tail. Log's
// Submit only sequences, so that a commit can release its locks before
// it writes (Ticket.Wait); Append does both.
//
// Under FsyncBatch and FsyncInterval the device owns one syncer goroutine,
// started when it opens and stopped by Close, which syncs what has been
// written. While appends run, the syncer is the only code that fsyncs the
// active segment; rotation's seal sync and Close's final sync are the
// exceptions. The first write, sync or rotate failure sticks: every later
// sequencing, write, durability wait and Close returns it, and no sync
// after it reports a frame durable, so a frame whose commit failed cannot
// become durable behind the engine's back.
//
// The device runs in one of two layouts:
//
//   - Single file (OpenFileDevice): one O_APPEND file, opened without
//     truncation or scanning — a device pointed at an existing log
//     continues it. A log that may end in a torn frame must be replayed
//     (and truncated to the last complete frame) before reuse. Replay
//     reads such a file; ReplayPartition does not.
//
//   - Segments (OpenSegmentedDevice): the log is a chain of files named
//     by the sequence number of their first frame. A write rolls to a
//     fresh segment once the active one crosses the size threshold, and
//     TruncateBelow drops whole prefix segments by unlinking them — log
//     truncation never rewrites bytes. Opening scans only the newest
//     segment, repairing a torn tail in place so the device can append
//     after a crash.
type FileDevice struct {
	policy   FsyncPolicy
	interval time.Duration

	// Segment layout state; zero/nil under the single-file layout.
	dir    string
	part   int
	segMax int64

	mu        sync.Mutex
	f         *os.File
	pending   []byte        // frames sequenced but not yet written, in LSN order
	spare     []byte        // the buffer the last write emptied: pending's next
	lsn       atomic.Uint64 // last frame sequenced; stored under mu
	written   atomic.Uint64 // last frame in the file; stored under mu
	writing   atomic.Bool   // a committer is writing pending frames outside mu
	writers   txn.Watchers  // committers waiting for that write to end
	segStart  uint64        // sequence of the active segment's first frame
	segBytes  int64         // bytes in the active segment
	liveBytes int64         // bytes across all live segments
	segs      []segmentRef  // closed (sealed) segments, oldest first
	stats     DeviceStats
	lastSync  time.Time
	closed    bool
	err       error // first write, sync or rotate failure; sticks

	synced  uint64        // last frame a completed sync covers
	syncing *os.File      // the file the syncer is syncing outside mu
	work    sync.Cond     // wakes the syncer: frames written, or Close
	durable sync.Cond     // broadcast when synced advances or err is set
	quit    chan struct{} // closed by Close; ends the syncer's interval wait
	stopped chan struct{} // closed when the syncer exits; nil without one
}

type segmentRef struct {
	path     string
	firstSeq uint64
	bytes    int64
}

// DefaultFsyncInterval is the FsyncInterval window of every device the
// partition and segmented openers create, and OpenFileDevice's for an
// interval ≤ 0: a zero window would make every append sync — silently
// measuring the per-batch (worst-case) policy under the bounded-loss
// policy's name.
const DefaultFsyncInterval = time.Millisecond

// DefaultSegmentBytes is the segment size threshold used when a
// segmented device is opened without one. Small enough that truncation
// reclaims space promptly at benchmark write rates, large enough that
// rotation (a close + create + dir sync) stays off the hot path.
const DefaultSegmentBytes = 4 << 20

// OpenFileDevice opens (creating if needed, never truncating) path as a
// single-file log device with the given fsync policy. interval is
// only meaningful for FsyncInterval (≤ 0 falls back to
// DefaultFsyncInterval).
func OpenFileDevice(path string, policy FsyncPolicy, interval time.Duration) (*FileDevice, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open log: %w", err)
	}
	if policy == FsyncInterval && interval <= 0 {
		interval = DefaultFsyncInterval
	}
	return (&FileDevice{f: f, policy: policy, interval: interval}).start(), nil
}

// OpenSegmentedDevice opens partition p's segmented log in dir, creating
// the first segment if none exists. An existing chain is continued: the
// newest segment is scanned, a torn tail (crash mid-append) is repaired
// in place by truncating to the last complete frame, and the device
// resumes at the sequence after the last durable frame. A CRC-invalid
// frame anywhere in the newest segment fails the open — that is bit rot,
// and appending past it would bury the evidence.
func OpenSegmentedDevice(dir string, p int, policy FsyncPolicy, segMax int64) (*FileDevice, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create log dir: %w", err)
	}
	if segMax <= 0 {
		segMax = DefaultSegmentBytes
	}
	d := &FileDevice{policy: policy, interval: DefaultFsyncInterval, dir: dir, part: p, segMax: segMax}
	segs, err := ListSegments(dir, p)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		f, err := os.OpenFile(SegmentPath(dir, p, 1), os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: create segment: %w", err)
		}
		if err := SyncDir(dir); err != nil {
			f.Close()
			return nil, err
		}
		d.f, d.segStart = f, 1
		return d.start(), nil
	}
	newest := segs[len(segs)-1]
	bounds, torn, err := FrameBounds(newest.Path)
	if err != nil {
		return nil, fmt.Errorf("wal: open segment %s: %w", newest.Path, err)
	}
	var valid int64
	if len(bounds) > 0 {
		valid = bounds[len(bounds)-1][1]
	}
	if torn {
		if err := os.Truncate(newest.Path, valid); err != nil {
			return nil, fmt.Errorf("wal: repair torn segment tail: %w", err)
		}
	}
	f, err := os.OpenFile(newest.Path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open segment: %w", err)
	}
	d.f = f
	d.segStart = newest.FirstSeq
	d.segBytes = valid
	d.lsn.Store(newest.FirstSeq - 1 + uint64(len(bounds)))
	for _, sg := range segs[:len(segs)-1] {
		d.segs = append(d.segs, segmentRef{path: sg.Path, firstSeq: sg.FirstSeq, bytes: sg.Bytes})
		d.liveBytes += sg.Bytes
	}
	d.liveBytes += valid
	return d.start(), nil
}

// start starts the syncer of a device whose policy syncs; the frames
// already on disk count as written and synced.
func (d *FileDevice) start() *FileDevice {
	d.work.L, d.durable.L = &d.mu, &d.mu
	d.written.Store(d.lsn.Load())
	d.synced, d.lastSync = d.lsn.Load(), time.Now()
	if d.policy != FsyncNone {
		d.quit, d.stopped = make(chan struct{}), make(chan struct{})
		go d.syncLoop()
	}
	return d
}

// PartitionLogPath returns a single-file name for partition p's log inside
// dir, for callers that open one with OpenFileDevice. No partitioned
// writer or ReplayPartition uses it: those read and write segment chains.
func PartitionLogPath(dir string, p int) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%03d.log", p))
}

// OpenPartitionSegmentedDevices opens one segmented FileDevice per
// partition in dir; see OpenSegmentedDevice. On any error the
// already-opened devices are closed.
func OpenPartitionSegmentedDevices(dir string, n int, policy FsyncPolicy, segMax int64) ([]*FileDevice, error) {
	devs := make([]*FileDevice, n)
	for p := range devs {
		d, err := OpenSegmentedDevice(dir, p, policy, segMax)
		if err != nil {
			for _, o := range devs[:p] {
				o.Close()
			}
			return nil, err
		}
		devs[p] = d
	}
	return devs, nil
}

// Path returns the file the device currently appends to.
func (d *FileDevice) Path() string { return d.f.Name() }

// WriteHook is how a FileDevice writes its pending frames:
// (*os.File).Write. It is a variable, like txn's clock and yield, so
// that tests can stall or fail the write a commit makes after it has
// released its locks; nothing else sets it.
var WriteHook = (*os.File).Write

// Append implements Device: it sequences rec and writes it (writeThrough).
// A frame written before a rotation fails is still returned: whether it
// is durable is the sync's verdict, and the failure stops every later
// append.
func (d *FileDevice) Append(rec []byte) (uint64, error) {
	lsn, err := d.sequence(rec)
	if err != nil {
		return 0, err
	}
	return lsn, d.writeThrough(lsn, nil)
}

// sequence copies rec's frame into the pending buffer and gives it the
// next LSN; it makes no syscall. It fails only with the device's sticky
// error or ErrClosed.
func (d *FileDevice) sequence(rec []byte) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return 0, d.err
	}
	if d.closed {
		return 0, ErrClosed
	}
	d.pending = appendFrame(d.pending, rec)
	d.stats.Appends++
	d.stats.Bytes += uint64(len(rec))
	lsn := d.lsn.Load() + 1
	d.lsn.Store(lsn)
	return lsn, nil
}

// writeThrough returns once frame lsn is in the file, or with the
// device's failure if that came first. When no committer is writing it
// writes every pending frame itself; when one is, w waits for that write
// to end — polling, yielding, then parking, as txn.Txn.Wait does — and
// looks again. A nil w waits as a fresh transaction, which never polls.
func (d *FileDevice) writeThrough(lsn uint64, w *txn.Txn) error {
	for d.written.Load() < lsn {
		d.mu.Lock()
		switch {
		case d.written.Load() >= lsn:
		case d.err != nil:
			d.mu.Unlock()
			return d.err
		case !d.writing.Load():
			d.writeLocked()
		default:
			d.mu.Unlock()
			if w == nil {
				w = new(txn.Txn)
			}
			d.writers.Wait(w, func() bool { return !d.writing.Load() || d.written.Load() >= lsn })
			continue
		}
		d.mu.Unlock()
	}
	return nil
}

// writeLocked writes every pending frame with one Write, made outside mu,
// which it holds on entry and on return. While it writes, the device is
// marked writing: other committers wait instead of writing, and nothing
// else touches the file, so frames land in LSN order. It then rotates the
// segment if it is full, wakes the syncer and every committer waiting for
// the write.
func (d *FileDevice) writeLocked() {
	buf, upto, f := d.pending, d.lsn.Load(), d.f
	d.pending = d.spare[:0]
	d.writing.Store(true)
	d.mu.Unlock()
	_, err := WriteHook(f, buf)
	d.mu.Lock()
	d.spare = buf[:0]
	if err != nil {
		d.fail(err)
	} else {
		d.written.Store(upto)
		d.segBytes += int64(len(buf))
		d.liveBytes += int64(len(buf))
		d.stats.Writes++
		if err := d.maybeRotateLocked(); err != nil {
			d.fail(err)
		}
		if d.stopped != nil {
			d.work.Signal()
		}
	}
	d.writing.Store(false)
	d.writers.WakeAll()
}

// fail makes err the device's failure unless one came first, wakes every
// durability wait, and returns the failure that sticks.
func (d *FileDevice) fail(err error) error {
	if d.err == nil {
		d.err = err
	}
	d.durable.Broadcast()
	return d.err
}

// noteSync charges one fsync that took took.
func (d *FileDevice) noteSync(took time.Duration) {
	d.stats.Syncs++
	d.stats.SyncTime += took
	d.lastSync = time.Now()
}

// syncLocked fsyncs the active segment under the lock; the sync covers
// every frame written so far.
func (d *FileDevice) syncLocked() error {
	start := time.Now()
	err := d.f.Sync()
	d.noteSync(time.Since(start))
	if err != nil {
		return d.fail(err)
	}
	d.synced = d.written.Load()
	d.durable.Broadcast()
	return nil
}

// syncLoop is the syncer. Woken by a write, it yields once, so that
// every committer already runnable writes its frame first, then fsyncs
// everything written so far outside the lock and wakes the commits that
// sync covers. Under FsyncInterval it first waits out the interval since
// the last sync. It exits on Close or at the first failure.
func (d *FileDevice) syncLoop() {
	defer close(d.stopped)
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		for d.synced == d.written.Load() && !d.closed && d.err == nil {
			d.work.Wait()
		}
		if d.closed || d.err != nil {
			return
		}
		wait := d.interval - time.Since(d.lastSync)
		d.mu.Unlock()
		if d.policy == FsyncInterval && wait > 0 {
			select {
			case <-time.After(wait):
			case <-d.quit:
			}
		} else {
			runtime.Gosched()
		}
		d.mu.Lock()
		if d.closed || d.err != nil {
			return
		}
		f, upto := d.f, d.written.Load()
		d.syncing = f
		d.mu.Unlock()
		start := time.Now()
		err := f.Sync()
		took := time.Since(start)
		d.mu.Lock()
		d.syncing = nil
		d.noteSync(took)
		if f != d.f {
			f.Close() // rotated away while syncing: sealed, and left to us
		}
		if err != nil {
			d.fail(err)
			return
		}
		d.synced = max(d.synced, upto)
		d.durable.Broadcast()
	}
}

// waitSynced blocks until a sync covers frame lsn. It returns the
// device's failure if that came first.
func (d *FileDevice) waitSynced(lsn uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.synced < lsn && d.err == nil {
		d.durable.Wait()
	}
	if d.synced >= lsn {
		return nil
	}
	return d.err
}

// maybeRotateLocked seals the active segment and starts a fresh one once
// the size threshold is crossed. Rotation happens between writes, so a
// frame never spans segment files. The sealed segment is synced first —
// a closed segment is immutable and must be fully durable before
// truncation decisions are made against it — and that sync covers every
// frame written so far. Rotation never lets go of the lock; a segment the
// syncer is syncing meanwhile is closed by the syncer.
func (d *FileDevice) maybeRotateLocked() error {
	if d.segMax == 0 || d.segBytes < d.segMax {
		return nil
	}
	if d.policy != FsyncNone {
		if err := d.syncLocked(); err != nil {
			return err
		}
	}
	if d.f != d.syncing {
		if err := d.f.Close(); err != nil {
			return err
		}
	}
	d.segs = append(d.segs, segmentRef{path: d.f.Name(), firstSeq: d.segStart, bytes: d.segBytes})
	next := d.written.Load() + 1
	f, err := os.OpenFile(SegmentPath(d.dir, d.part, next), os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: rotate segment: %w", err)
	}
	if err := SyncDir(d.dir); err != nil {
		f.Close()
		return err
	}
	d.f = f
	d.segStart = next
	d.segBytes = 0
	return nil
}

// Seq returns the sequence number of the last sequenced frame (the
// partition-local LSN), written or not. On a freshly opened segmented
// device it reflects the durable chain on disk, not just this process's
// appends.
func (d *FileDevice) Seq() uint64 { return d.lsn.Load() }

// LiveBytes returns the bytes held by all live (not yet truncated)
// segments, the quantity a size-triggered checkpoint policy watches. On
// a single-file device it counts only this process's appends.
func (d *FileDevice) LiveBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.liveBytes
}

// TruncateBelow unlinks every closed segment whose frames all have
// sequence ≤ seq, returning the bytes reclaimed. The active segment is
// never touched — truncation is unlink-only, so it can at worst leave a
// little extra prefix, never lose a record above seq. Only segmented
// devices truncate.
func (d *FileDevice) TruncateBelow(seq uint64) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.segMax == 0 {
		return 0, fmt.Errorf("wal: truncate: device is not segmented")
	}
	var dropped int64
	for len(d.segs) > 0 {
		next := d.segStart
		if len(d.segs) > 1 {
			next = d.segs[1].firstSeq
		}
		if next > seq+1 { // segment holds frames above seq: keep it and stop
			break
		}
		if err := os.Remove(d.segs[0].path); err != nil && !os.IsNotExist(err) {
			return dropped, fmt.Errorf("wal: truncate segment: %w", err)
		}
		dropped += d.segs[0].bytes
		d.liveBytes -= d.segs[0].bytes
		d.segs = d.segs[1:]
	}
	if dropped > 0 {
		if err := SyncDir(d.dir); err != nil {
			return dropped, err
		}
	}
	return dropped, nil
}

// Stats implements StatsDevice.
func (d *FileDevice) Stats() DeviceStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Close writes every frame sequenced before it (a commit that has not
// waited yet, or the record a failed multi-partition commit left on this
// log), stops the syncer, syncs (unless the policy is FsyncNone or the
// device has failed) and closes the file. It returns the device's first
// failure, if any. Appends after Close fail with ErrClosed.
func (d *FileDevice) Close() error {
	d.mu.Lock()
	if d.closed {
		defer d.mu.Unlock()
		return d.err
	}
	d.closed = true
	d.mu.Unlock()
	d.writeThrough(d.lsn.Load(), nil) // a failure sticks in d.err, returned below
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped != nil {
		close(d.quit)
		d.work.Signal()
		d.mu.Unlock()
		<-d.stopped
		d.mu.Lock()
	}
	if d.policy != FsyncNone && d.err == nil {
		d.syncLocked() // a failure sticks in d.err, returned below
	}
	if err := d.f.Close(); err != nil && d.err == nil {
		return err
	}
	return d.err
}

// TempSuffix ends the name of the file WriteFileAtomic writes before it
// renames it into place; a crash mid-write can leave one behind.
const TempSuffix = ".tmp"

// WriteFileAtomic makes data the content of path so that a crash leaves
// either the old state or the whole new file: data goes to
// path+TempSuffix, which is fsynced and renamed over path, and then the
// directory is fsynced.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + TempSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create %s: %w", tmp, err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: write %s: %w", path, err)
	}
	return SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs a directory so renames, creations and unlinks inside it
// are durable.
func SyncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close() // read-only handle: Sync's error is the one that counts
	return f.Sync()
}
