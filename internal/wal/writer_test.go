package wal

import (
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"bamboo/internal/txn"
)

// committer returns a transaction to wait as: one whose waits poll
// before they yield while gate is open, as a session's do.
func committer(gate *atomic.Bool) *txn.Txn {
	t := txn.New(0)
	t.SetWaiter(txn.NewWaiter(gate))
	return t
}

// TestWaitReturnsWrittenFrame has concurrent committers submit and wait:
// once a Wait returns, its frame is in the file under FsyncNone, and a
// sync covers it under FsyncBatch. Submit alone writes nothing.
func TestWaitReturnsWrittenFrame(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncNone, FsyncBatch} {
		t.Run(policy.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			dev, err := OpenFileDevice(path, policy, 0)
			if err != nil {
				t.Fatal(err)
			}
			l := New(dev)
			tk := l.NewAppender().Submit(sample())
			if info, err := os.Stat(path); err != nil {
				t.Fatal(err)
			} else if info.Size() != 0 {
				t.Fatalf("a submitted record reached the file before its wait: %d bytes", info.Size())
			}
			if _, err := tk.Wait(nil); err != nil {
				t.Fatal(err)
			}

			var gate atomic.Bool
			gate.Store(runtime.GOMAXPROCS(0) >= 4)
			const workers, perWorker = 4, 40
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					a, me := l.NewAppender(), committer(&gate)
					for i := 0; i < perWorker; i++ {
						lsn, err := a.Submit(&Record{TxnID: uint64(1000 + w*perWorker + i)}).Wait(me)
						if err != nil {
							t.Errorf("wait: %v", err)
							return
						}
						bounds, _, err := FrameBounds(path)
						if err != nil {
							t.Errorf("frame bounds: %v", err)
							return
						}
						if uint64(len(bounds)) < lsn {
							t.Errorf("wait for frame %d returned with %d frames in the file", lsn, len(bounds))
							return
						}
						if got := syncedThrough(dev); policy == FsyncBatch && got < lsn {
							t.Errorf("wait for frame %d returned with frames through %d synced", lsn, got)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			s := dev.Stats()
			if err := dev.Close(); err != nil {
				t.Fatal(err)
			}
			if s.Writes == 0 || s.Writes > s.Appends {
				t.Fatalf("%d writes for %d appends", s.Writes, s.Appends)
			}
			recs, _ := replayAll(t, path)
			checkUnique(t, recs, workers*perWorker+1)
		})
	}
}

// TestCloseWritesSequencedFrames: a record sequenced but never waited on
// — a commit still on its way to Wait, or one partition's record of a
// commit that failed on another — reaches the file at Close.
func TestCloseWritesSequencedFrames(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	dev, err := OpenFileDevice(path, FsyncBatch, 0)
	if err != nil {
		t.Fatal(err)
	}
	New(dev).NewAppender().Submit(sample())
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	if recs, _ := replayAll(t, path); len(recs) != 1 {
		t.Fatalf("%d records after close, want the sequenced one", len(recs))
	}
}

// BenchmarkLogCommit is the log's line in the layer ledger: two
// committers Submit and Wait 256-byte images on one FsyncNone
// FileDevice. It reports ns per commit and the device's
// writes per commit: below 1 when one committer's write carries the
// other's frame too. Their waits poll while GOMAXPROCS gives each a
// processor, as a two-worker DB's do.
func BenchmarkLogCommit(b *testing.B) {
	dev, err := OpenFileDevice(filepath.Join(b.TempDir(), "wal.log"), FsyncNone, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer dev.Close()
	l := New(dev)
	var gate atomic.Bool
	gate.Store(runtime.GOMAXPROCS(0) >= 2)
	rec := &Record{TxnID: 1, Writes: []Write{{Table: "t", Key: 1, Image: make([]byte, 256)}}}
	before := dev.Stats()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			a, me := l.NewAppender(), committer(&gate)
			for i := 0; i < n; i++ {
				if _, err := a.Submit(rec).Wait(me); err != nil {
					b.Error(err)
					return
				}
			}
		}((b.N + 1 - w) / 2)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(dev.Stats().Writes-before.Writes)/float64(b.N), "writes/commit")
}
