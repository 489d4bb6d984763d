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
	if st.Appends != 3 || st.Batches != 3 || st.Bytes == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Syncs != 3 || st.SyncTime <= 0 {
		t.Fatalf("FsyncBatch must sync per append: %+v", st)
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
		dev, err := OpenFileDevice(filepath.Join(t.TempDir(), "w.log"), FsyncBatch, 0)
		if err != nil {
			t.Fatal(err)
		}
		batch := [][]byte{AppendRecord(nil, sample()), AppendRecord(nil, sample()), AppendRecord(nil, sample())}
		if _, err := dev.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		s := dev.Stats()
		if s.Appends != 3 || s.Batches != 1 || s.Syncs != 1 {
			t.Fatalf("one batch of three must cost one sync: %+v", s)
		}
		dev.Close()
	})
}

func TestFileDeviceGroupCommitConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	dev, err := OpenFileDevice(path, FsyncBatch, 0)
	if err != nil {
		t.Fatal(err)
	}
	l := NewGroupCommit(dev)
	const workers, perWorker = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a := l.NewAppender()
			for i := 0; i < perWorker; i++ {
				rec := &Record{TxnID: uint64(w*perWorker + i + 1),
					Writes: []Write{{Table: "t", Key: uint64(i), Image: []byte{byte(w), byte(i)}}}}
				if _, err := a.Commit(rec); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	recs, st := replayAll(t, path)
	if st.Torn || len(recs) != workers*perWorker {
		t.Fatalf("replayed %d records (torn=%v), want %d", len(recs), st.Torn, workers*perWorker)
	}
	s := dev.Stats()
	if s.Syncs >= uint64(workers*perWorker) {
		t.Fatalf("group commit did not amortize fsyncs: %d syncs for %d records", s.Syncs, s.Appends)
	}
	seen := map[uint64]bool{}
	for _, r := range recs {
		if seen[r.TxnID] {
			t.Fatalf("duplicate record %d", r.TxnID)
		}
		seen[r.TxnID] = true
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

func TestOpenPartitionDevices(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	devs, err := OpenPartitionDevices(dir, 3, FsyncNone)
	if err != nil {
		t.Fatal(err)
	}
	for p, d := range devs {
		if d.Path() != PartitionLogPath(dir, p) {
			t.Fatalf("device %d at %s", p, d.Path())
		}
		if _, err := d.Append(AppendRecord(nil, &Record{TxnID: uint64(p + 1)})); err != nil {
			t.Fatal(err)
		}
		d.Close()
	}
	for p := 0; p < 3; p++ {
		recs, _ := replayAll(t, PartitionLogPath(dir, p))
		if len(recs) != 1 || recs[0].TxnID != uint64(p+1) {
			t.Fatalf("partition %d log: %+v", p, recs)
		}
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
