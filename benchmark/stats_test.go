package main

import (
	"math"
	"testing"
)

func TestPercentileIsExactNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 100}, {100, 100}, {1, 10}, {10, 10}, {11, 20}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty sample should read 0")
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4) prints.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{7, 1, 3, 5, 2, 6, 4}, [3]float64{2, 4, 6}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5}, [3]float64{5, 5, 5}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSummarizeWindows(t *testing.T) {
	s := summarize("us", []float64{7, 1, 3, 5, 2, 6, 4})
	if s.Value != 4 || s.Min != 1 || s.Max != 7 || s.IQR != 4 || s.Unit != "us" {
		t.Fatalf("summary %+v", s)
	}
	if got := s.spread(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("spread %v, want 1", got)
	}
	if got := summarize("us", nil); got.Value != 0 || got.spread() != 0 {
		t.Fatalf("empty summary %+v", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "put_p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	tight := func(v float64) summary { return summary{Value: v, IQR: 0.01 * v} }
	noisy := func(v float64) summary { return summary{Value: v, IQR: 0.2 * v} }
	for _, c := range []struct {
		d    metricDef
		a, b summary
		want string
	}{
		{lower, tight(100), tight(105), "ok"},
		{lower, tight(100), tight(80), "ok"},
		{lower, tight(100), tight(115), "regressed"},
		{lower, noisy(100), tight(115), "unresolved"},
		{higher, tight(100), tight(95), "ok"},
		{higher, tight(100), tight(85), "regressed"},
		{higher, tight(100), noisy(85), "unresolved"},
		{higher, tight(100), tight(130), "ok"},
	} {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}
