package wal

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// fillSegments appends n single-write records through a segmented device
// with a tiny threshold so rotation actually happens, and returns the
// device (left open).
func fillSegments(t *testing.T, dir string, n int, segMax int64) *FileDevice {
	t.Helper()
	dev, err := OpenSegmentedDevice(dir, 0, FsyncNone, segMax)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		rec := &Record{TxnID: uint64(i), Writes: []Write{{Table: "t", Key: uint64(i), Image: make([]byte, 32)}}}
		if seq, err := dev.Append(AppendRecord(nil, rec)); err != nil || seq != uint64(i) {
			t.Fatalf("append %d: seq=%d err=%v", i, seq, err)
		}
	}
	return dev
}

// segments counts partition 0's live segment files in dir.
func segments(t *testing.T, dir string) int {
	t.Helper()
	segs, err := ListSegments(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return len(segs)
}

func TestSegmentedRoundTripAndRotation(t *testing.T) {
	dir := t.TempDir()
	dev := fillSegments(t, dir, 50, 256)
	if n := segments(t, dir); n < 2 {
		t.Fatalf("no rotation happened: %d segments", n)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	st, err := ReplayPartition(dir, 0, 0, func(r *Record) error {
		got = append(got, r.TxnID)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 50 || st.Torn || st.Skipped != 0 {
		t.Fatalf("stats = %+v", st)
	}
	for i, id := range got {
		if id != uint64(i+1) {
			t.Fatalf("record %d has TxnID %d", i, id)
		}
	}
	if st.FirstApplied != 1 || st.LastSeq != 50 {
		t.Fatalf("seq range = [%d, %d]", st.FirstApplied, st.LastSeq)
	}
}

func TestSegmentedReopenContinues(t *testing.T) {
	dir := t.TempDir()
	dev := fillSegments(t, dir, 20, 256)
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	dev2, err := OpenSegmentedDevice(dir, 0, FsyncNone, 256)
	if err != nil {
		t.Fatal(err)
	}
	if got := dev2.Seq(); got != 20 {
		t.Fatalf("reopened Seq = %d, want 20", got)
	}
	if seq, err := dev2.Append(AppendRecord(nil, &Record{TxnID: 21})); err != nil || seq != 21 {
		t.Fatalf("append after reopen: seq=%d err=%v", seq, err)
	}
	dev2.Close()
	n := 0
	st, err := ReplayPartition(dir, 0, 0, func(*Record) error { n++; return nil })
	if err != nil || n != 21 || st.LastSeq != 21 {
		t.Fatalf("replay after reopen: n=%d st=%+v err=%v", n, st, err)
	}
}

// TestSegmentedTornTailRepair crash-truncates the newest segment
// mid-frame and reopens: the torn tail must be repaired in place so the
// device appends cleanly after it, losing only the torn frame.
func TestSegmentedTornTailRepair(t *testing.T) {
	dir := t.TempDir()
	dev := fillSegments(t, dir, 10, 1<<20) // single segment
	path := dev.Path()
	dev.Close()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	dev2, err := OpenSegmentedDevice(dir, 0, FsyncNone, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got := dev2.Seq(); got != 9 {
		t.Fatalf("Seq after torn-tail repair = %d, want 9", got)
	}
	if _, err := dev2.Append(AppendRecord(nil, &Record{TxnID: 100})); err != nil {
		t.Fatal(err)
	}
	dev2.Close()
	var ids []uint64
	st, err := ReplayPartition(dir, 0, 0, func(r *Record) error { ids = append(ids, r.TxnID); return nil })
	if err != nil || st.Torn {
		t.Fatalf("replay: %+v %v", st, err)
	}
	if len(ids) != 10 || ids[8] != 9 || ids[9] != 100 {
		t.Fatalf("records after repair+append: %v", ids)
	}
}

// TestSegmentedOpenRefusesCorruption pins that open-time repair never
// truncates away bit rot: a CRC-broken frame in the newest segment fails
// the open rather than being "repaired".
func TestSegmentedOpenRefusesCorruption(t *testing.T) {
	dir := t.TempDir()
	dev := fillSegments(t, dir, 5, 1<<20)
	path := dev.Path()
	dev.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeaderSize] ^= 0x01 // first payload byte of the first frame
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmentedDevice(dir, 0, FsyncNone, 1<<20); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over bit rot: %v, want ErrCorrupt", err)
	}
}

func TestTruncateBelow(t *testing.T) {
	dir := t.TempDir()
	dev := fillSegments(t, dir, 60, 256)
	nSegs := segments(t, dir)
	if nSegs < 3 {
		t.Fatalf("want ≥3 segments, got %d", nSegs)
	}
	before := dev.LiveBytes()
	dropped, err := dev.TruncateBelow(30)
	if err != nil {
		t.Fatal(err)
	}
	if dropped <= 0 || dev.LiveBytes() != before-dropped {
		t.Fatalf("dropped=%d live %d -> %d", dropped, before, dev.LiveBytes())
	}
	dev.Close()
	// Everything above seq 30 must still replay; the log may retain a
	// little extra prefix (whole-segment granularity) but never lose a
	// record above the cut.
	var ids []uint64
	st, err := ReplayPartition(dir, 0, 30, func(r *Record) error { ids = append(ids, r.TxnID); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 30 || ids[0] != 31 || ids[len(ids)-1] != 60 {
		t.Fatalf("post-truncation replay: %d records %v", st.Records, ids)
	}
	if st.SkippedSegments == 0 && st.Skipped == 0 {
		t.Fatalf("truncation left nothing to skip? stats=%+v", st)
	}
	// A full replay of the truncated chain must fail loudly: the records
	// below the cut are gone, and pretending otherwise would resurrect a
	// state missing committed writes.
	if _, err := ReplayPartition(dir, 0, 0, func(*Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("full replay of truncated chain: %v, want ErrCorrupt", err)
	}
}

// TestReplayPartitionSkipsWholeSegments pins the whole-file skip: with a
// checkpoint covering the first segments, recovery must not even open
// them (Bytes counts only applied frames).
func TestReplayPartitionSkipsWholeSegments(t *testing.T) {
	dir := t.TempDir()
	dev := fillSegments(t, dir, 60, 256)
	dev.Close()
	full, err := ReplayPartition(dir, 0, 0, func(*Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	st, err := ReplayPartition(dir, 0, 40, func(*Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 20 || st.SkippedSegments == 0 {
		t.Fatalf("suffix replay: %+v", st)
	}
	if st.Skipped+st.Records != 60 {
		t.Fatalf("skipped %d + applied %d != 60", st.Skipped, st.Records)
	}
	if st.Bytes >= full.Bytes {
		t.Fatalf("suffix replay read %d bytes, full replay %d — no work was saved", st.Bytes, full.Bytes)
	}
}

// TestReplayPartitionHole pins chain-continuity checking: removing a
// middle segment must fail the replay as corruption.
func TestReplayPartitionHole(t *testing.T) {
	dir := t.TempDir()
	dev := fillSegments(t, dir, 60, 256)
	dev.Close()
	segs, err := ListSegments(dir, 0)
	if err != nil || len(segs) < 3 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	if err := os.Remove(segs[1].Path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayPartition(dir, 0, 0, func(*Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay over a segment hole: %v, want ErrCorrupt", err)
	}
}

// TestReplayPartitionVerifiesSkippedFrames pins that frame-level
// skipping still checks CRCs: a bit flip below the checkpoint LSN in a
// segment recovery reads is corruption, not silently ignored.
func TestReplayPartitionVerifiesSkippedFrames(t *testing.T) {
	dir := t.TempDir()
	dev := fillSegments(t, dir, 10, 1<<20) // one segment
	path := dev.Path()
	dev.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeaderSize+1] ^= 0x40 // payload of frame 1, which fromSeq=5 skips
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayPartition(dir, 0, 5, func(*Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip in skipped frame: %v, want ErrCorrupt", err)
	}
}

func TestFrameBounds(t *testing.T) {
	dir := t.TempDir()
	dev := fillSegments(t, dir, 3, 1<<20)
	path := dev.Path()
	dev.Close()
	bounds, torn, err := FrameBounds(path)
	if err != nil || torn || len(bounds) != 3 {
		t.Fatalf("bounds=%v torn=%v err=%v", bounds, torn, err)
	}
	info, _ := os.Stat(path)
	if bounds[0][0] != 0 || bounds[2][1] != info.Size() {
		t.Fatalf("bounds do not tile the file: %v size=%d", bounds, info.Size())
	}
	if err := os.Truncate(path, info.Size()-1); err != nil {
		t.Fatal(err)
	}
	if b, torn, err := FrameBounds(path); err != nil || !torn || len(b) != 2 {
		t.Fatalf("torn scan: %v %v %v", b, torn, err)
	}
}

func TestListSegmentsIgnoresOtherPartitions(t *testing.T) {
	dir := t.TempDir()
	for p := 0; p < 2; p++ {
		dev, err := OpenSegmentedDevice(dir, p, FsyncNone, 128)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if _, err := dev.Append(AppendRecord(nil, &Record{TxnID: uint64(p*100 + i)})); err != nil {
				t.Fatal(err)
			}
		}
		dev.Close()
	}
	for p := 0; p < 2; p++ {
		segs, err := ListSegments(dir, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) == 0 {
			t.Fatalf("partition %d: no segments", p)
		}
		for _, sg := range segs {
			if filepath.Base(sg.Path)[:8] != "wal-00"+string(rune('0'+p))+"-" {
				t.Fatalf("partition %d listed %s", p, sg.Path)
			}
		}
	}
	// A partition with no segment has no log: recovery skips it on this
	// error.
	if _, err := ReplayPartition(dir, 2, 0, func(*Record) error { return nil }); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("replay of a partition without segments: %v, want fs.ErrNotExist", err)
	}
}
