package main

import (
	"math"
	"sort"
)

// percentile returns the exact nearest-rank p-th percentile (0 < p <= 100)
// of an ascending sample; no buckets, no interpolation. Empty samples read 0.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return float64(sorted[rank-1])
}

func mean(s []int64) float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += float64(v)
	}
	return sum / float64(len(s))
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), so spreads
// computed here and by the driver agree. Fewer than two values have no spread:
// all three read the lone value.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return x[0], x[0], x[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// summary is one metric over a run's windows. Value is the median; the
// spread fields make run-to-run noise a first-class part of the record.
type summary struct {
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	IQR     float64   `json:"iqr"`
	Windows []float64 `json:"windows"`
}

func summarize(unit string, windows []float64) summary {
	s := summary{Unit: unit, Windows: windows}
	if len(windows) == 0 {
		return s
	}
	q1, q2, q3 := quartiles(windows)
	s.Value, s.IQR = q2, q3-q1
	s.Min, s.Max = windows[0], windows[0]
	for _, v := range windows {
		s.Min = math.Min(s.Min, v)
		s.Max = math.Max(s.Max, v)
	}
	return s
}

// spread is the inter-quartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return math.Abs(s.IQR / s.Value)
}
