package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

func replayAll(t *testing.T, path string) ([]*Record, ReplayStats) {
	t.Helper()
	var recs []*Record
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := Replay(f, func(r *Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("replay %s: %v", path, err)
	}
	return recs, st
}

func TestFileDeviceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	dev, err := OpenFileDevice(path, FsyncBatch, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := New(dev).NewAppender()
	want := []*Record{sample(), {TxnID: 9}, sample()}
	for i, r := range want {
		lsn, err := a.Commit(r)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn = %d, want %d", lsn, i+1)
		}
	}
	st := dev.Stats()
	if st.Appends != 3 || st.Bytes == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Syncs != 3 || st.SyncTime <= 0 {
		t.Fatalf("one commit at a time under FsyncBatch must cost one sync each: %+v", st)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Append([]byte{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	got, rst := replayAll(t, path)
	if rst.Torn || rst.Records != 3 || !reflect.DeepEqual(got, want) {
		t.Fatalf("replay: %+v, stats %+v", got, rst)
	}
}

func TestFileDeviceFsyncPolicies(t *testing.T) {
	t.Run("none", func(t *testing.T) {
		dev, err := OpenFileDevice(filepath.Join(t.TempDir(), "w.log"), FsyncNone, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if _, err := dev.Append(AppendRecord(nil, sample())); err != nil {
				t.Fatal(err)
			}
		}
		if s := dev.Stats(); s.Syncs != 0 {
			t.Fatalf("FsyncNone synced %d times", s.Syncs)
		}
		dev.Close()
	})
	t.Run("interval", func(t *testing.T) {
		dev, err := OpenFileDevice(filepath.Join(t.TempDir(), "w.log"), FsyncInterval, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if _, err := dev.Append(AppendRecord(nil, sample())); err != nil {
				t.Fatal(err)
			}
		}
		if s := dev.Stats(); s.Syncs != 0 {
			t.Fatalf("interval=1h synced %d times within the window", s.Syncs)
		}
		dev.Close()
	})
	t.Run("interval-zero-defaults", func(t *testing.T) {
		// A zero window must fall back to DefaultFsyncInterval, not
		// degenerate to an fsync on every append.
		dev, err := OpenFileDevice(filepath.Join(t.TempDir(), "w.log"), FsyncInterval, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if _, err := dev.Append(AppendRecord(nil, sample())); err != nil {
				t.Fatal(err)
			}
		}
		if s := dev.Stats(); s.Syncs >= 10 {
			t.Fatalf("zero interval synced per append (%d syncs for 10 appends)", s.Syncs)
		}
		dev.Close()
	})
	t.Run("batch-amortized", func(t *testing.T) {
		// A sync covers every frame written before it starts: waiting
		// for the last of three appends finds all three durable, at no
		// more than one sync each.
		dev, err := OpenFileDevice(filepath.Join(t.TempDir(), "w.log"), FsyncBatch, 0)
		if err != nil {
			t.Fatal(err)
		}
		var lsn uint64
		for i := 0; i < 3; i++ {
			if lsn, err = dev.Append(AppendRecord(nil, sample())); err != nil {
				t.Fatal(err)
			}
		}
		if err := dev.waitSynced(lsn); err != nil {
			t.Fatal(err)
		}
		if got := syncedThrough(dev); got != 3 {
			t.Fatalf("synced through %d after waiting for frame 3", got)
		}
		if s := dev.Stats(); s.Appends != 3 || s.Syncs == 0 || s.Syncs > 3 {
			t.Fatalf("three appends: %+v", s)
		}
		dev.Close()
	})
	t.Run("interval-syncs-in-background", func(t *testing.T) {
		// Under FsyncInterval nothing waits, yet the syncer still makes
		// an idle device's tail durable within the interval.
		dev, err := OpenFileDevice(filepath.Join(t.TempDir(), "w.log"), FsyncInterval, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		defer dev.Close()
		lsn, err := New(dev).NewAppender().Commit(sample())
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.waitSynced(lsn); err != nil {
			t.Fatal(err)
		}
	})
}

// syncedThrough returns the last frame a completed sync of d covers.
func syncedThrough(d *FileDevice) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.synced
}

// commitConcurrently has workers goroutines commit perWorker records each
// to dev and checks that no Commit returns before a sync covers its frame.
func commitConcurrently(t *testing.T, dev *FileDevice, workers, perWorker int) {
	t.Helper()
	l := New(dev)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a := l.NewAppender()
			for i := 0; i < perWorker; i++ {
				rec := &Record{TxnID: uint64(w*perWorker + i + 1),
					Writes: []Write{{Table: "t", Key: uint64(i), Image: []byte{byte(w), byte(i)}}}}
				lsn, err := a.Commit(rec)
				if err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				if got := syncedThrough(dev); got < lsn {
					t.Errorf("commit of frame %d returned with frames through %d synced", lsn, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// checkUnique fails unless recs holds n records with distinct TxnIDs.
func checkUnique(t *testing.T, recs []*Record, n int) {
	t.Helper()
	if len(recs) != n {
		t.Fatalf("replayed %d records, want %d", len(recs), n)
	}
	seen := map[uint64]bool{}
	for _, r := range recs {
		if seen[r.TxnID] {
			t.Fatalf("duplicate record %d", r.TxnID)
		}
		seen[r.TxnID] = true
	}
}

// TestBatchSyncDurability has concurrent committers share one FsyncBatch
// device: every commit returns only once a sync covers its frame, every
// record replays once, and the syncer shares its fsyncs — fewer syncs
// than appends.
func TestBatchSyncDurability(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	dev, err := OpenFileDevice(path, FsyncBatch, 0)
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 50
	commitConcurrently(t, dev, workers, perWorker)
	s := dev.Stats()
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Appends != workers*perWorker || s.Syncs >= s.Appends {
		t.Fatalf("the syncer did not share fsyncs: %d syncs for %d appends", s.Syncs, s.Appends)
	}
	t.Logf("%d records, %d syncs", s.Appends, s.Syncs)
	recs, st := replayAll(t, path)
	if st.Torn {
		t.Fatal("torn tail after a clean close")
	}
	checkUnique(t, recs, workers*perWorker)
}

// TestFileDeviceBatchSyncRotation rotates tiny segments under concurrent
// FsyncBatch committers, so rotations seal segments the syncer is still
// syncing: no commit may fail and every record must replay. The race
// rarely lands between the syncer reading the file and syncing it, so
// the test first plays the syncer itself: a rotation that seals the file
// being synced must leave it open for that sync.
func TestFileDeviceBatchSyncRotation(t *testing.T) {
	quiet, err := OpenSegmentedDevice(t.TempDir(), 0, FsyncNone, 64)
	if err != nil {
		t.Fatal(err)
	}
	quiet.mu.Lock()
	syncing := quiet.f
	quiet.syncing = syncing
	quiet.mu.Unlock()
	for quiet.Path() == syncing.Name() {
		if _, err := quiet.Append(AppendRecord(nil, sample())); err != nil {
			t.Fatal(err)
		}
	}
	if err := syncing.Sync(); err != nil {
		t.Fatalf("rotation closed the segment being synced: %v", err)
	}
	syncing.Close()
	quiet.Close()

	dir := t.TempDir()
	dev, err := OpenSegmentedDevice(dir, 0, FsyncBatch, 256)
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 4, 100
	commitConcurrently(t, dev, workers, perWorker)
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	if n := segments(t, dir); n < 10 {
		t.Fatalf("only %d segments: the test did not rotate", n)
	}
	var recs []*Record
	if _, err := ReplayPartition(dir, 0, 0, func(r *Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	checkUnique(t, recs, workers*perWorker)
}

// TestFileDeviceFailureSticks injects a failed sync and a failed write.
// Each time, the first failure is what every commit waiting on an
// uncovered frame, every later append and Close return, and no frame
// follows the failure on disk, even once the good file is back.
func TestFileDeviceFailureSticks(t *testing.T) {
	for _, c := range []struct {
		name string
		bad  func(t *testing.T, path string) *os.File
	}{
		// Writes to a pipe succeed; fsyncing one fails.
		{"sync", func(t *testing.T, _ string) *os.File {
			r, w, err := os.Pipe()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close(); w.Close() })
			return w
		}},
		// Writes to a read-only handle fail.
		{"write", func(t *testing.T, path string) *os.File {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Close() })
			return f
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			dev, err := OpenFileDevice(path, FsyncBatch, 0)
			if err != nil {
				t.Fatal(err)
			}
			l := New(dev)
			if _, err := l.NewAppender().Commit(sample()); err != nil {
				t.Fatal(err)
			}
			bad := c.bad(t, path)
			dev.mu.Lock()
			good := dev.f
			dev.f = bad
			dev.mu.Unlock()

			const committers = 4
			tickets := make([]Ticket, committers)
			for i := range tickets {
				tickets[i] = l.NewAppender().Submit(&Record{TxnID: uint64(100 + i)})
			}
			var first error
			for i, tk := range tickets {
				_, err := tk.Wait(nil)
				if err == nil {
					t.Fatalf("commit %d succeeded on a failed device", i)
				}
				if first == nil {
					first = err
				} else if !errors.Is(err, first) {
					t.Fatalf("commit %d: %v, want the first failure %v", i, err, first)
				}
			}

			dev.mu.Lock()
			dev.f = good
			dev.mu.Unlock()
			if _, err := dev.Append(AppendRecord(nil, sample())); !errors.Is(err, first) {
				t.Fatalf("append after the failure: %v, want %v", err, first)
			}
			if err := dev.Close(); !errors.Is(err, first) {
				t.Fatalf("close: %v, want %v", err, first)
			}
			if got := syncedThrough(dev); got != 1 {
				t.Fatalf("frames through %d reported durable, want only the first", got)
			}
			recs, _ := replayAll(t, path)
			if len(recs) != 1 || !reflect.DeepEqual(recs[0], sample()) {
				t.Fatalf("the log holds %d records, want only the one before the failure", len(recs))
			}
		})
	}
}

// TestReplayTornTail cuts a three-record log at every byte offset and
// replays each prefix: the result must always be the longest record
// prefix the cut preserves, with the partial frame reported as torn, and
// never an error — the framing makes every crash point recoverable.
func TestReplayTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	dev, err := OpenFileDevice(path, FsyncNone, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := New(dev).NewAppender()
	want := []*Record{sample(), {TxnID: 7, Writes: []Write{{Table: "x", Key: 1, Image: bytes.Repeat([]byte{3}, 40)}}}, sample()}
	var bounds []int64 // cumulative end offset of each frame
	for _, r := range want {
		if _, err := a.Commit(r); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, frameSize(len(AppendRecord(nil, r)))+prevBound(bounds))
	}
	dev.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) != bounds[len(bounds)-1] {
		t.Fatalf("file is %d bytes, frames end at %d", len(full), bounds[len(bounds)-1])
	}
	for cut := 0; cut <= len(full); cut++ {
		wantN := 0
		for _, b := range bounds {
			if int64(cut) >= b {
				wantN++
			}
		}
		var got int
		st, err := Replay(bytes.NewReader(full[:cut]), func(r *Record) error {
			if !reflect.DeepEqual(r, want[got]) {
				t.Fatalf("cut %d: record %d mismatch: %+v", cut, got, r)
			}
			got++
			return nil
		})
		if err != nil {
			t.Fatalf("cut %d: replay error: %v", cut, err)
		}
		if got != wantN {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, got, wantN)
		}
		onBoundary := cut == 0
		for _, b := range bounds {
			if int64(cut) == b {
				onBoundary = true
			}
		}
		if st.Torn == onBoundary {
			t.Fatalf("cut %d: torn=%v, on frame boundary=%v", cut, st.Torn, onBoundary)
		}
		if st.Bytes != prefixBound(bounds, int64(cut)) {
			t.Fatalf("cut %d: last complete frame at %d, want %d", cut, st.Bytes, prefixBound(bounds, int64(cut)))
		}
	}
}

func prevBound(bounds []int64) int64 {
	if len(bounds) == 0 {
		return 0
	}
	return bounds[len(bounds)-1]
}

func prefixBound(bounds []int64, cut int64) int64 {
	var last int64
	for _, b := range bounds {
		if cut >= b {
			last = b
		}
	}
	return last
}

// TestReplayRejectsCorruptMiddle pins the torn/corrupt distinction: a
// complete frame whose content is garbage is corruption, not a tolerated
// torn tail.
func TestReplayRejectsCorruptMiddle(t *testing.T) {
	// A complete, CRC-consistent 5-byte frame of garbage between two valid
	// frames: the checksums pass, the decode must not.
	log := appendFrame(nil, AppendRecord(nil, sample()))
	log = appendFrame(log, []byte{1, 2, 3, 4, 5})
	log = appendFrame(log, AppendRecord(nil, sample()))
	n := 0
	_, err := Replay(bytes.NewReader(log), func(*Record) error { n++; return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt middle frame: err=%v, want ErrCorrupt", err)
	}
	if n != 1 {
		t.Fatalf("replayed %d records before the corruption, want 1", n)
	}
}

// TestReplayRejectsOverflowingFramePrefix pins the MaxFrameBytes guard: a
// corrupted-in-place length prefix claiming an implausible frame must
// fail the replay as corruption — not read to EOF, report a benign torn
// tail, and silently drop every committed record after it.
func TestReplayRejectsOverflowingFramePrefix(t *testing.T) {
	// A header whose length words agree (so the complement check passes)
	// but claim a ~4 GiB frame: only the MaxFrameBytes cap stands between
	// this and a huge allocation plus a bogus torn-tail verdict.
	log := appendFrame(nil, AppendRecord(nil, sample()))
	log = binary.LittleEndian.AppendUint32(log, 0xFFFFFFF0)
	log = binary.LittleEndian.AppendUint32(log, ^uint32(0xFFFFFFF0))
	log = binary.LittleEndian.AppendUint32(log, 0)
	log = appendFrame(log, AppendRecord(nil, sample()))
	n := 0
	st, err := Replay(bytes.NewReader(log), func(*Record) error { n++; return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("overflowing frame prefix: err=%v torn=%v, want ErrCorrupt", err, st.Torn)
	}
	if n != 1 {
		t.Fatalf("replayed %d records before the corruption, want 1", n)
	}
}

// TestFileDeviceAppendContinues pins the no-truncate contract: reopening
// an existing log appends after its current contents.
func TestFileDeviceAppendContinues(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	for i := 1; i <= 2; i++ {
		dev, err := OpenFileDevice(path, FsyncNone, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dev.Append(AppendRecord(nil, &Record{TxnID: uint64(i)})); err != nil {
			t.Fatal(err)
		}
		dev.Close()
	}
	recs, _ := replayAll(t, path)
	if len(recs) != 2 || recs[0].TxnID != 1 || recs[1].TxnID != 2 {
		t.Fatalf("reopen did not append: %+v", recs)
	}
}
