package stats

import (
	"sync/atomic"
	"time"
)

// Live is the telemetry mirror of the per-worker collectors: a set of
// atomic counters shared by every worker of one DB that a scraper may read
// at any moment during a run.
//
// The per-worker Collector remains the source of truth for end-of-run
// reports — it is plain-field and contention-free — but it cannot be read
// while workers are running. Attaching a Live (Collector.AttachLive)
// makes RecordCommit, RecordAbort and Add additionally issue one atomic
// add per value touched, which a concurrent reader can load without
// synchronization; Load copies the mirror into a Collector, so a live
// report is the same Summarize over the same fields as an end-of-run one.
// With no Live attached the hot path pays one predictable nil check and
// nothing else.
//
// All fields are monotonically increasing over the lifetime of the runs
// that share them; readers must tolerate counters advancing between
// loads (no snapshot isolation across fields).
type Live struct {
	Commits  atomic.Uint64
	Aborts   atomic.Uint64
	AbortsBy [6]atomic.Uint64 // indexed by txn.AbortCause
	Counts   [numCounters]atomic.Uint64

	// The breakdown totals, in nanoseconds (Collector's four durations).
	LockWait   atomic.Int64
	CommitWait atomic.Int64
	AbortTime  atomic.Int64
	UsefulTime atomic.Int64

	// Lat accumulates the commit-latency distribution of every worker in
	// one concurrently-readable histogram.
	Lat AtomicHist
}

// Load copies the mirror into c, replacing the fields the mirror carries.
func (l *Live) Load(c *Collector) {
	c.Commits = l.Commits.Load()
	c.Aborts = l.Aborts.Load()
	for i := range l.AbortsBy {
		c.AbortsBy[i] = l.AbortsBy[i].Load()
	}
	for k := range l.Counts {
		c.Counts[k] = l.Counts[k].Load()
	}
	c.LockWait = time.Duration(l.LockWait.Load())
	c.CommitWait = time.Duration(l.CommitWait.Load())
	c.AbortTime = time.Duration(l.AbortTime.Load())
	c.UsefulTime = time.Duration(l.UsefulTime.Load())
	l.Lat.Load(&c.Lat)
}

// AtomicHist is the concurrently-recordable counterpart of Hist: same
// log-linear bucket geometry (histIndex / histValue), atomic counters
// instead of plain ones. Record is a few atomic adds — safe on the commit
// path of every worker at once — and Load is pure atomic loads, so a
// scraper never blocks a worker.
type AtomicHist struct {
	counts   [histBuckets]atomic.Uint64
	overflow atomic.Uint64
	sum      atomic.Int64
}

// Record adds one observation. Negative durations are clamped to zero.
func (h *AtomicHist) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.sum.Add(v)
	if v >= histMaxValue {
		h.overflow.Add(1)
		return
	}
	h.counts[histIndex(v)].Add(1)
}

// Load copies the histogram into dst. The count is the sum of the buckets
// loaded, so a walk over dst is consistent however many records race the
// load. Min and max are not tracked atomically: dst reports the lowest and
// highest non-empty buckets' values instead (histMaxValue for overflow),
// so only quantiles that land in those two buckets differ from a Hist fed
// the same observations.
func (h *AtomicHist) Load(dst *Hist) {
	*dst = Hist{overflow: h.overflow.Load(), sum: h.sum.Load()}
	dst.total = dst.overflow
	lo := -1
	for i := range h.counts {
		if n := h.counts[i].Load(); n > 0 {
			dst.counts[i] = n
			dst.total += n
			if lo < 0 {
				lo = i
			}
			dst.max = histValue(i)
		}
	}
	if dst.overflow > 0 {
		dst.max = histMaxValue
	}
	dst.min = dst.max
	if lo >= 0 {
		dst.min = histValue(lo)
	}
}

// AttachLive points the collector's telemetry mirror at l (nil detaches).
// Call before the worker starts recording.
func (c *Collector) AttachLive(l *Live) { c.Live = l }

// Add counts n events of kind k.
func (c *Collector) Add(k Counter, n uint64) {
	c.Counts[k] += n
	if c.Live != nil && n > 0 {
		c.Live.Counts[k].Add(n)
	}
}
