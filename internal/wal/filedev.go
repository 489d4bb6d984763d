package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// FsyncPolicy selects when a FileDevice forces its appends to stable
// storage.
type FsyncPolicy int

const (
	// FsyncNone never syncs: appends go to the OS page cache only. The
	// data survives a process crash (the kernel has it) but not a power
	// loss; the policy isolates the cost of the write path itself.
	FsyncNone FsyncPolicy = iota
	// FsyncBatch syncs once per device write operation — per record
	// without group commit, per epoch batch with it. This is the durable
	// configuration whose cost group commit exists to amortize.
	FsyncBatch
	// FsyncInterval syncs at most once per Interval, piggybacked on the
	// next append after the interval elapses: bounded data loss at a
	// bounded sync rate.
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
// frame.go describes, which is what Replay reads. Each record (or batch)
// is written with a single Write call, which means a crash leaves at most
// one torn frame — and only at the tail.
//
// The device runs in one of two layouts:
//
//   - Legacy single file (OpenFileDevice): one O_APPEND file, opened
//     without truncation or scanning — a device pointed at an existing
//     log continues it. A log that may end in a torn frame must be
//     replayed (and truncated to the last complete frame) before reuse.
//     This is the checkpoints-off layout; it is byte-compatible with
//     what every prior benchmark baseline measured.
//
//   - Segments (OpenSegmentedDevice): the log is a chain of files named
//     by the sequence number of their first frame. Appends roll to a
//     fresh segment once the active one crosses the size threshold, and
//     TruncateBelow drops whole prefix segments by unlinking them — log
//     truncation never rewrites bytes. Opening scans only the newest
//     segment, repairing a torn tail in place so the device can append
//     after a crash.
type FileDevice struct {
	policy   FsyncPolicy
	interval time.Duration

	// Segment layout state; zero/nil under the legacy single-file layout.
	dir    string
	part   int
	segMax int64

	mu        sync.Mutex
	f         *os.File
	scratch   []byte // frame assembly buffer, one Write syscall per batch
	lsn       uint64
	segStart  uint64       // sequence of the active segment's first frame
	segBytes  int64        // bytes in the active segment
	liveBytes int64        // bytes across all live segments
	segs      []segmentRef // closed (sealed) segments, oldest first
	stats     DeviceStats
	lastSync  time.Time
	closed    bool
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
// legacy single-file log device with the given fsync policy. interval is
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
	return &FileDevice{f: f, policy: policy, interval: interval, lastSync: time.Now()}, nil
}

// OpenSegmentedDevice opens partition p's segmented log in dir, creating
// the first segment if none exists. An existing chain is continued: the
// newest segment is scanned, a torn tail (crash mid-append) is repaired
// in place by truncating to the last complete frame, and the device
// resumes at the sequence after the last durable frame. A CRC-invalid
// frame anywhere in the newest segment fails the open — that is bit rot,
// and appending past it would bury the evidence. A legacy single-file
// log in the same directory also fails the open: the two layouts do not
// mix, and silently ignoring the old file would drop its records from
// recovery.
func OpenSegmentedDevice(dir string, p int, policy FsyncPolicy, segMax int64) (*FileDevice, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create log dir: %w", err)
	}
	if _, err := os.Stat(PartitionLogPath(dir, p)); err == nil {
		return nil, fmt.Errorf("wal: partition %d has a legacy log in %s; segmented and single-file layouts do not mix", p, dir)
	}
	if segMax <= 0 {
		segMax = DefaultSegmentBytes
	}
	d := &FileDevice{policy: policy, interval: DefaultFsyncInterval, dir: dir, part: p, segMax: segMax, lastSync: time.Now()}
	segs, err := ListSegments(dir, p)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		f, err := os.OpenFile(SegmentPath(dir, p, 1), os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: create segment: %w", err)
		}
		if err := syncDir(dir); err != nil {
			f.Close()
			return nil, err
		}
		d.f, d.segStart = f, 1
		return d, nil
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
	d.lsn = newest.FirstSeq - 1 + uint64(len(bounds))
	for _, sg := range segs[:len(segs)-1] {
		d.segs = append(d.segs, segmentRef{path: sg.Path, firstSeq: sg.FirstSeq, bytes: sg.Bytes})
		d.liveBytes += sg.Bytes
	}
	d.liveBytes += valid
	return d, nil
}

// PartitionLogPath returns the canonical file name of partition p's log
// inside dir under the legacy single-file layout; writers
// (OpenPartitionDevices) and recovery agree on it.
func PartitionLogPath(dir string, p int) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%03d.log", p))
}

// OpenPartitionDevices creates dir if needed and opens one legacy
// single-file FileDevice per partition at the canonical paths. On any
// error the already-opened devices are closed.
func OpenPartitionDevices(dir string, n int, policy FsyncPolicy) ([]*FileDevice, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create log dir: %w", err)
	}
	devs := make([]*FileDevice, n)
	for p := range devs {
		d, err := OpenFileDevice(PartitionLogPath(dir, p), policy, 0)
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

// Append implements Device.
func (d *FileDevice) Append(rec []byte) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, ErrClosed
	}
	d.scratch = appendFrame(d.scratch[:0], rec)
	if _, err := d.f.Write(d.scratch); err != nil {
		return 0, err
	}
	d.lsn++
	d.segBytes += int64(len(d.scratch))
	d.liveBytes += int64(len(d.scratch))
	d.stats.Appends++
	d.stats.Batches++
	d.stats.Bytes += uint64(len(rec))
	if err := d.maybeSyncLocked(); err != nil {
		return 0, err
	}
	if err := d.maybeRotateLocked(); err != nil {
		return 0, err
	}
	return d.lsn, nil
}

// AppendBatch implements BatchDevice: every frame of the batch goes out
// in one Write call and — under FsyncBatch — one fsync, which is the
// whole point of group commit on a real device.
func (d *FileDevice) AppendBatch(recs [][]byte) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, ErrClosed
	}
	d.scratch = d.scratch[:0]
	for _, rec := range recs {
		d.scratch = appendFrame(d.scratch, rec)
		d.stats.Bytes += uint64(len(rec))
	}
	if _, err := d.f.Write(d.scratch); err != nil {
		return 0, err
	}
	d.lsn += uint64(len(recs))
	d.segBytes += int64(len(d.scratch))
	d.liveBytes += int64(len(d.scratch))
	d.stats.Appends += uint64(len(recs))
	d.stats.Batches++
	if err := d.maybeSyncLocked(); err != nil {
		return 0, err
	}
	if err := d.maybeRotateLocked(); err != nil {
		return 0, err
	}
	return d.lsn, nil
}

func (d *FileDevice) maybeSyncLocked() error {
	switch d.policy {
	case FsyncBatch:
	case FsyncInterval:
		if time.Since(d.lastSync) < d.interval {
			return nil
		}
	default:
		return nil
	}
	start := time.Now()
	err := d.f.Sync()
	d.stats.Syncs++
	d.stats.SyncTime += time.Since(start)
	d.lastSync = time.Now()
	return err
}

// maybeRotateLocked seals the active segment and starts a fresh one once
// the size threshold is crossed. Rotation happens between batches, so a
// frame never spans segment files (a batch larger than the threshold
// simply overshoots). The sealed segment is synced first — a closed
// segment is immutable and must be fully durable before truncation
// decisions are made against it.
func (d *FileDevice) maybeRotateLocked() error {
	if d.segMax == 0 || d.segBytes < d.segMax {
		return nil
	}
	if d.policy != FsyncNone {
		start := time.Now()
		if err := d.f.Sync(); err != nil {
			return err
		}
		d.stats.Syncs++
		d.stats.SyncTime += time.Since(start)
		d.lastSync = time.Now()
	}
	if err := d.f.Close(); err != nil {
		return err
	}
	d.segs = append(d.segs, segmentRef{path: d.f.Name(), firstSeq: d.segStart, bytes: d.segBytes})
	next := d.lsn + 1
	f, err := os.OpenFile(SegmentPath(d.dir, d.part, next), os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: rotate segment: %w", err)
	}
	if err := syncDir(d.dir); err != nil {
		f.Close()
		return err
	}
	d.f = f
	d.segStart = next
	d.segBytes = 0
	return nil
}

// Seq returns the sequence number of the last appended frame (the
// partition-local LSN). On a freshly opened segmented device it reflects
// the durable chain on disk, not just this process's appends.
func (d *FileDevice) Seq() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lsn
}

// LiveBytes returns the bytes held by all live (not yet truncated)
// segments, the quantity a size-triggered checkpoint policy watches. On
// a legacy device it counts only this process's appends.
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
		if err := syncDir(d.dir); err != nil {
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

// Close syncs (unless the policy is FsyncNone) and closes the file.
// Appends after Close fail with ErrClosed.
func (d *FileDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	var syncErr error
	if d.policy != FsyncNone {
		start := time.Now()
		syncErr = d.f.Sync()
		d.stats.Syncs++
		d.stats.SyncTime += time.Since(start)
	}
	if err := d.f.Close(); err != nil {
		return err
	}
	return syncErr
}

// syncDir fsyncs a directory so renames, creations and unlinks inside it
// are durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := f.Sync()
	cerr := f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}
