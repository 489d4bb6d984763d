package wal

import (
	"path/filepath"
	"testing"
)

func TestPartitionedLogRoutesIndependently(t *testing.T) {
	devs := make([]Device, 3)
	mems := make([]*MemDevice, 3)
	for i := range devs {
		mems[i] = NewMemDevice(true)
		devs[i] = mems[i]
	}
	pl := NewPartitioned(devs)
	if pl.Partitions() != 3 {
		t.Fatalf("partitions = %d", pl.Partitions())
	}
	for p := 0; p < 3; p++ {
		a := pl.Log(p).NewAppender()
		for i := 0; i < p+1; i++ {
			seq, err := a.Commit(&Record{TxnID: uint64(100*p + i)})
			if err != nil {
				t.Fatal(err)
			}
			if seq != uint64(i+1) {
				t.Fatalf("partition %d: seq = %d, want %d", p, seq, i+1)
			}
		}
	}
	for p, m := range mems {
		if got := m.Stats().Appends; got != uint64(p+1) {
			t.Fatalf("partition %d has %d records, want %d", p, got, p+1)
		}
	}
	st := pl.Stats()
	if st.Appends != 6 || st.Bytes == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitWaitOverlapsPartitions drives the split submit/wait path: a
// committer with records for several partition logs submits to all,
// marks, and waits on the mark, which writes every log before it waits
// for any device's sync, so the syncers sync concurrently rather than
// serially. The test pins the API contract (a waited record is written
// and synced under FsyncBatch, a zero mark is inert); the latency win is
// BenchmarkCommitCrossPartitionBatch's (internal/core).
func TestSubmitWaitOverlapsPartitions(t *testing.T) {
	files, err := OpenPartitionSegmentedDevices(t.TempDir(), 2, FsyncBatch, 0)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPartitioned([]Device{files[0], files[1]})
	defer pl.Close()
	apps := []*Appender{pl.Log(0).NewAppender(), pl.Log(1).NewAppender()}
	mark := make([]uint64, 2)
	for i := 0; i < 20; i++ {
		var lsns [2]uint64
		for p, a := range apps {
			if lsns[p], err = a.Submit(&Record{TxnID: uint64(2*i + p + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		if pl.Mark(mark); mark[0] != lsns[0] || mark[1] != lsns[1] {
			t.Fatalf("mark %v after submitting %v", mark, lsns)
		}
		if err := pl.Wait(mark, nil); err != nil {
			t.Fatal(err)
		}
		for p, d := range files {
			if got := syncedThrough(d); got < lsns[p] {
				t.Fatalf("partition %d: the wait for frame %d returned with frames through %d synced", p, lsns[p], got)
			}
		}
	}
	for p := 0; p < 2; p++ {
		if got := files[p].Stats().Appends; got != 20 {
			t.Fatalf("partition %d has %d records, want 20", p, got)
		}
	}
	// A zero mark, and an empty one, wait for nothing: not even for the
	// record sequenced but unwritten on partition 0.
	if _, err := apps[0].Submit(sample()); err != nil {
		t.Fatal(err)
	}
	before := files[0].Stats().Writes
	if err := pl.Wait(make([]uint64, 2), nil); err != nil {
		t.Fatal(err)
	}
	if err := pl.Wait(nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := files[0].Stats().Writes; got != before {
		t.Fatalf("a zero mark wrote the log: %d writes, want %d", got, before)
	}
}

// TestMemoryLogMarkIsZero: a memory device's record is final at Submit,
// so its log's entry in a mark is 0: nothing to wait for, beside a file
// log's entry that is not.
func TestMemoryLogMarkIsZero(t *testing.T) {
	dev := NewMemDevice(true)
	pl := NewPartitioned([]Device{dev})
	lsn, err := pl.Log(0).NewAppender().Submit(sample())
	if err != nil || lsn != 1 {
		t.Fatalf("submit: lsn=%d err=%v", lsn, err)
	}
	if dev.Stats().Appends != 1 {
		t.Fatal("submit on a per-record log did not append")
	}
	m := []uint64{7}
	if pl.Mark(m); m[0] != 0 {
		t.Fatalf("mark %v of a memory log, want [0]", m)
	}

	file, err := OpenFileDevice(filepath.Join(t.TempDir(), "wal.log"), FsyncNone, 0)
	if err != nil {
		t.Fatal(err)
	}
	mixed := NewPartitioned([]Device{dev, file})
	defer mixed.Close()
	if _, err := mixed.Log(1).NewAppender().Submit(sample()); err != nil {
		t.Fatal(err)
	}
	m = make([]uint64, 2)
	if mixed.Mark(m); m[0] != 0 || m[1] != 1 {
		t.Fatalf("mark %v, want [0 1]: the memory log's entry is 0", m)
	}
	if err := mixed.Wait(m, nil); err != nil {
		t.Fatal(err)
	}
	if got := file.Stats().Writes; got != 1 {
		t.Fatalf("%d writes after the wait, want 1", got)
	}
}
