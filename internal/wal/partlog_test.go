package wal

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestPartitionedLogRoutesIndependently(t *testing.T) {
	devs := make([]Device, 3)
	mems := make([]*MemDevice, 3)
	for i := range devs {
		mems[i] = NewMemDevice(true)
		devs[i] = mems[i]
	}
	pl := NewPartitioned(devs, false)
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

func TestPartitionedLogGroupCommitCloseDrains(t *testing.T) {
	devs := []Device{NewMemDevice(false), NewMemDevice(false)}
	pl := NewPartitioned(devs, true)
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			a := pl.Log(p).NewAppender()
			for i := 0; i < 50; i++ {
				if _, err := a.Commit(&Record{TxnID: uint64(i)}); err != nil {
					t.Errorf("partition %d: %v", p, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	if st := pl.Stats(); st.Appends != 100 {
		t.Fatalf("appends = %d, want 100", st.Appends)
	}
	// Every partition's committer must be stopped.
	for p := 0; p < 2; p++ {
		if _, err := pl.Log(p).NewAppender().Commit(sample()); !errors.Is(err, ErrClosed) {
			t.Fatalf("partition %d commit after close: %v", p, err)
		}
	}
}

// TestSubmitWaitOverlapsPartitions drives the split submit/wait path: a
// committer with records for several partition logs submits to all before
// waiting, so slow devices flush concurrently rather than serially. The
// test pins the API contract (ticket per log, wait-all completes, zero
// tickets are inert); the latency win is visible in -exp durability.
func TestSubmitWaitOverlapsPartitions(t *testing.T) {
	devs := []Device{
		&slowDevice{MemDevice: NewMemDevice(true), delay: time.Millisecond},
		&slowDevice{MemDevice: NewMemDevice(true), delay: time.Millisecond},
	}
	pl := NewPartitioned(devs, true)
	defer pl.Close()
	apps := []*Appender{pl.Log(0).NewAppender(), pl.Log(1).NewAppender()}
	var tickets [3]Ticket // one spare zero ticket: must be inert
	for i := 0; i < 20; i++ {
		for p, a := range apps {
			tickets[p] = a.Submit(&Record{TxnID: uint64(2*i + p + 1)})
		}
		for _, tk := range tickets {
			if _, err := tk.Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for p := 0; p < 2; p++ {
		if got := devs[p].(*slowDevice).Stats().Appends; got != 20 {
			t.Fatalf("partition %d has %d records, want 20", p, got)
		}
	}
}

func TestTicketPerRecordLog(t *testing.T) {
	dev := NewMemDevice(true)
	l := New(dev)
	a := l.NewAppender()
	tk := a.Submit(sample())
	// Per-record logs are durable at submit; Wait just reports.
	if dev.Stats().Appends != 1 {
		t.Fatal("submit on a per-record log did not append")
	}
	lsn, err := tk.Wait()
	if err != nil || lsn != 1 {
		t.Fatalf("wait: lsn=%d err=%v", lsn, err)
	}
}

func TestNewPartitionedNilDevices(t *testing.T) {
	pl := NewPartitioned(nil, false)
	if pl.Partitions() != 1 {
		t.Fatalf("partitions = %d", pl.Partitions())
	}
	if _, err := pl.Log(0).NewAppender().Commit(sample()); err != nil {
		t.Fatal(err)
	}
	pl.Close()
}
