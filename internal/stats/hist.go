package stats

import (
	"math/bits"
	"time"
)

// Hist is a fixed-bucket log-linear latency histogram in the style of
// HdrHistogram: values below 2^histSubBits nanoseconds are counted
// exactly, and every power-of-two range above that is split into
// 2^histSubBits linear sub-buckets, bounding the relative quantile error
// at 1/2^histSubBits (~1.6%) while keeping memory constant. Recording is
// O(1) with no allocation, so it can sit on the commit path of every
// worker; Merge folds worker histograms by adding bucket counts, which —
// unlike the capped reservoir it replaces — loses nothing when many
// workers each commit millions of transactions.
//
// The zero value is an empty histogram ready for use. Hist is not safe
// for concurrent use; give each worker its own and Merge at the end.
type Hist struct {
	counts [histBuckets]uint64
	// overflow counts values above histMaxValue (kept out of the bucket
	// array so quantiles stay well defined; reported as max).
	overflow uint64
	total    uint64
	sum      int64
	min, max int64
}

const (
	// histSubBits fixes the precision: 2^6 = 64 sub-buckets per octave,
	// ~1.6% worst-case relative error on any quantile.
	histSubBits  = 6
	histSubCount = 1 << histSubBits

	// histOctaves covers values up to ~2^36 ns ≈ 68 s, far beyond any
	// single-transaction latency in these benchmarks; larger values land
	// in the overflow counter.
	histOctaves  = 30
	histBuckets  = (histOctaves + 1) * histSubCount
	histMaxValue = int64(histSubCount) << histOctaves
)

// histIndex maps a non-negative value to its bucket. For v below
// histSubCount the mapping is the identity; above, the top histSubBits
// bits of v select the sub-bucket within v's octave.
func histIndex(v int64) int {
	if v < histSubCount {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 - histSubBits
	return e<<histSubBits + int(v>>uint(e))
}

// histValue returns the midpoint of bucket i's value range, the inverse
// of histIndex up to sub-bucket width.
func histValue(i int) int64 {
	if i < 2*histSubCount {
		return int64(i)
	}
	e := uint(i>>histSubBits - 1)
	sub := int64(i) - int64(e)<<histSubBits
	lo := sub << e
	return lo + (int64(1)<<e)/2
}

// Record adds one observation. Negative durations are clamped to zero.
func (h *Hist) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.total++
	h.sum += v
	if v >= histMaxValue {
		h.overflow++
		return
	}
	h.counts[histIndex(v)]++
}

// Merge folds other into h.
func (h *Hist) Merge(other *Hist) {
	if other.total == 0 {
		return
	}
	if h.total == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.total += other.total
	h.sum += other.sum
	h.overflow += other.overflow
	for i, n := range other.counts {
		if n != 0 {
			h.counts[i] += n
		}
	}
}

// Count returns the number of recorded observations.
func (h *Hist) Count() uint64 { return h.total }

// Mean returns the exact mean of all observations (the sum is tracked
// outside the buckets, so the mean carries no bucketing error).
func (h *Hist) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.sum / int64(h.total))
}

// Min and Max are tracked exactly.
func (h *Hist) Min() time.Duration { return time.Duration(h.min) }
func (h *Hist) Max() time.Duration { return time.Duration(h.max) }

// Quantile returns the value at or below which a fraction q of the
// observations fall, accurate to one sub-bucket (~1.6% relative). q is
// clamped to [0, 1]; an empty histogram reports zero.
func (h *Hist) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return time.Duration(h.min)
	}
	if q >= 1 {
		return time.Duration(h.max)
	}
	rank := uint64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var seen uint64
	for i, n := range h.counts {
		seen += n
		if seen > rank {
			v := histValue(i)
			// Clamp to the exactly-tracked extremes so tiny samples
			// never report a quantile outside [min, max].
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return time.Duration(v)
		}
	}
	// Only overflow observations remain above the rank.
	return time.Duration(h.max)
}
