// Package stats provides the latency histogram behind the obs registries'
// phase tables and the load generator's latency reports.
package stats

import (
	"math"
	"time"
)

// Histogram records latencies in logarithmic buckets (16 buckets per
// octave, ~4% relative error) and exact min/max/sum. Safe for concurrent
// use via Merge: each worker keeps its own Histogram and merges at the end.
type Histogram struct {
	buckets [numBuckets]uint64
	count   uint64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
}

const (
	// bucketsPerOctave sets the resolution: bucket boundaries grow by
	// 2^(1/16) ≈ 1.044, so a bucket midpoint is within ~2.2% of any
	// sample it holds — comfortably inside the documented ~4% bound.
	bucketsPerOctave = 16
	// numBuckets spans 512/16 = 32 octaves, i.e. 1ns up to ~4.3s.
	numBuckets = 512
)

// bucketFor maps a duration to a logarithmic bucket index.
func bucketFor(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	b := int(math.Log2(float64(d)) * bucketsPerOctave)
	if b < 0 {
		b = 0
	}
	if b > numBuckets-1 {
		b = numBuckets - 1
	}
	return b
}

// bucketMid returns a representative duration for a bucket.
func bucketMid(b int) time.Duration {
	return time.Duration(math.Exp2((float64(b) + 0.5) / bucketsPerOctave))
}

// Record adds one sample.
func (h *Histogram) Record(d time.Duration) {
	h.buckets[bucketFor(d)]++
	h.count++
	h.sum += d
	if h.min == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Merge adds other's samples into h.
func (h *Histogram) Merge(other *Histogram) {
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	h.count += other.count
	h.sum += other.sum
	if other.min != 0 && (h.min == 0 || other.min < h.min) {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the average latency.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Max returns the largest sample.
func (h *Histogram) Max() time.Duration { return h.max }

// Sum returns the total of all recorded samples.
func (h *Histogram) Sum() time.Duration { return h.sum }

// Percentile returns the approximate p-th percentile (0 < p <= 100).
// Percentile(100) is exact: it returns the true recorded maximum.
func (h *Histogram) Percentile(p float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if p >= 100 {
		return h.max
	}
	target := uint64(math.Ceil(p / 100 * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			// The midpoint of an edge bucket can fall outside the
			// recorded range; the exact min/max are tighter bounds.
			v := bucketMid(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}
