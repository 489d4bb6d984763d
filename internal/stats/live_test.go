package stats

import (
	"sync"
	"testing"
	"time"
)

// bucketOf returns the bucket Hist.Quantile(q) reads, histBuckets standing
// for the overflow counter.
func bucketOf(h *Hist, q float64) int {
	rank := uint64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var seen uint64
	for i, n := range h.counts {
		if seen += n; seen > rank {
			return i
		}
	}
	return histBuckets
}

// TestAtomicHistMatchesHist: fed the same observations, a loaded
// AtomicHist is the plain Hist — same buckets, count and sum, and so the
// same quantile wherever the plain one does not clamp to its exactly
// tracked min and max, i.e. everywhere but the lowest and highest
// non-empty buckets.
func TestAtomicHistMatchesHist(t *testing.T) {
	var h Hist
	var a AtomicHist
	// Identity buckets, several octaves, and one overflow value (≥ ~68s).
	ds := []time.Duration{
		0, 1, 50, 63, 64, 100, 999,
		time.Microsecond, 17 * time.Microsecond,
		time.Millisecond, 42 * time.Millisecond,
		time.Second, 90 * time.Second,
	}
	for i, d := range ds {
		for j := 0; j <= i; j++ {
			h.Record(d)
			a.Record(d)
		}
	}
	var got Hist
	a.Load(&got)
	if got.counts != h.counts || got.overflow != h.overflow || got.Count() != h.Count() || got.sum != h.sum {
		t.Fatalf("loaded histogram differs: count %d vs %d, overflow %d vs %d, sum %d vs %d",
			got.Count(), h.Count(), got.overflow, h.overflow, got.sum, h.sum)
	}
	lo, hi := bucketOf(&h, 0), bucketOf(&h, 0.9999999)
	checked := 0
	for i := 1; i < 1000; i++ {
		q := float64(i) / 1000
		if b := bucketOf(&h, q); b == lo || b == hi {
			continue
		}
		checked++
		if g, w := got.Quantile(q), h.Quantile(q); g != w {
			t.Errorf("q=%g: loaded %v, hist %v", q, g, w)
		}
	}
	if checked == 0 {
		t.Fatal("no quantile fell between the extreme buckets")
	}
}

// TestAtomicHistConcurrentReads asserts a reader racing many writers
// always sees sane values (run under -race this is also the data-race
// proof for the scrape path).
func TestAtomicHistConcurrentReads(t *testing.T) {
	var a AtomicHist
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			d := time.Duration(seed+1) * 10 * time.Microsecond
			for {
				select {
				case <-stop:
					return
				default:
					a.Record(d)
				}
			}
		}(w)
	}
	qs := []float64{0.5, 0.99}
	var h Hist
	deadline := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) {
		a.Load(&h)
		if h.Count() > 0 {
			// Bounds widened by one sub-bucket: quantiles report bucket
			// midpoints, not exact extremes.
			for _, q := range qs {
				if v := h.Quantile(q); v < 9*time.Microsecond || v > 41*time.Microsecond {
					t.Fatalf("quantile %g out of recorded range: %v", q, v)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestCollectorLiveMirror: with a Live attached, every record lands in
// both the plain fields and the atomic mirror, so loading the mirror gives
// back the collector; Merge/Summarize carry the event counters through to
// the report.
func TestCollectorLiveMirror(t *testing.T) {
	live := &Live{}
	c := &Collector{}
	c.AttachLive(live)
	c.RecordCommit(time.Millisecond, 2*time.Microsecond, 3*time.Microsecond)
	c.RecordAbort(1, time.Millisecond, 4*time.Microsecond, 0) // cause 1 = wound
	c.Add(Upgrades, 1)
	c.Add(Retires, 1)
	c.Add(Retires, 1)
	c.Add(SnapshotReads, 5)
	c.Add(VersionsPruned, 3)

	var loaded Collector
	live.Load(&loaded)
	if loaded.Commits != 1 || loaded.Aborts != 1 || loaded.AbortsBy != c.AbortsBy || loaded.Counts != c.Counts {
		t.Fatalf("mirror commits/aborts/by/counts = %d/%d/%v/%v, want %d/%d/%v/%v",
			loaded.Commits, loaded.Aborts, loaded.AbortsBy, loaded.Counts, c.Commits, c.Aborts, c.AbortsBy, c.Counts)
	}
	if loaded.LockWait != c.LockWait || loaded.CommitWait != c.CommitWait ||
		loaded.AbortTime != c.AbortTime || loaded.UsefulTime != c.UsefulTime {
		t.Fatalf("mirror breakdown %v/%v/%v/%v, want %v/%v/%v/%v",
			loaded.LockWait, loaded.CommitWait, loaded.AbortTime, loaded.UsefulTime,
			c.LockWait, c.CommitWait, c.AbortTime, c.UsefulTime)
	}
	if loaded.Lat.Count() != 1 {
		t.Fatalf("mirror latency count = %d", loaded.Lat.Count())
	}

	var merged Collector
	merged.Merge(c)
	rep := Summarize("test", time.Second, []*Collector{&merged}, nil)
	if rep.Upgrades != 1 || rep.Retires != 2 || rep.SnapshotReads != 5 || rep.VersionsPruned != 3 {
		t.Fatalf("report upgrades/retires/snapshot reads/pruned = %d/%d/%d/%d",
			rep.Upgrades, rep.Retires, rep.SnapshotReads, rep.VersionsPruned)
	}
}
