package wal

import (
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
// committer with records for several partition logs submits to all before
// waiting, so the devices' syncers sync concurrently rather than serially.
// The test pins the API contract (ticket per log, wait-all completes, zero
// tickets are inert); the latency win is visible in -exp durability.
func TestSubmitWaitOverlapsPartitions(t *testing.T) {
	files, err := OpenPartitionSegmentedDevices(t.TempDir(), 2, FsyncBatch, 0)
	if err != nil {
		t.Fatal(err)
	}
	devs := []Device{files[0], files[1]}
	pl := NewPartitioned(devs)
	defer pl.Close()
	apps := []*Appender{pl.Log(0).NewAppender(), pl.Log(1).NewAppender()}
	var tickets [3]Ticket // one spare zero ticket: must be inert
	for i := 0; i < 20; i++ {
		for p, a := range apps {
			tickets[p] = a.Submit(&Record{TxnID: uint64(2*i + p + 1)})
		}
		for _, tk := range tickets {
			if _, err := tk.Wait(nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	for p := 0; p < 2; p++ {
		if got := files[p].Stats().Appends; got != 20 {
			t.Fatalf("partition %d has %d records, want 20", p, got)
		}
	}
}

func TestTicketPerRecordLog(t *testing.T) {
	dev := NewMemDevice(true)
	l := New(dev)
	a := l.NewAppender()
	tk := a.Submit(sample())
	// A memory device's record is final at submit; Wait just reports.
	if dev.Stats().Appends != 1 {
		t.Fatal("submit on a per-record log did not append")
	}
	lsn, err := tk.Wait(nil)
	if err != nil || lsn != 1 {
		t.Fatalf("wait: lsn=%d err=%v", lsn, err)
	}
}
