package stats

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Min() != time.Microsecond {
		t.Errorf("Min = %v", h.Min())
	}
	if h.Max() != 100*time.Microsecond {
		t.Errorf("Max = %v", h.Max())
	}
	mean := h.Mean()
	if mean < 48*time.Microsecond || mean > 53*time.Microsecond {
		t.Errorf("Mean = %v, want ~50.5µs", mean)
	}
}

func TestPercentileApproximation(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		h.Record(time.Duration(rng.Intn(1000)+1) * time.Microsecond)
	}
	p50 := h.Percentile(50)
	if p50 < 400*time.Microsecond || p50 > 620*time.Microsecond {
		t.Errorf("p50 = %v, want ~500µs ±%d%%", p50, 20)
	}
	p99 := h.Percentile(99)
	if p99 < 850*time.Microsecond {
		t.Errorf("p99 = %v, want >= 850µs", p99)
	}
	if h.Percentile(100) < p99 {
		t.Error("p100 < p99")
	}
}

func TestPercentileEmpty(t *testing.T) {
	var h Histogram
	if h.Percentile(50) != 0 || h.Mean() != 0 {
		t.Error("empty histogram returned nonzero stats")
	}
}

func TestMerge(t *testing.T) {
	var a, b Histogram
	a.Record(10 * time.Microsecond)
	b.Record(30 * time.Microsecond)
	a.Merge(&b)
	if a.Count() != 2 {
		t.Errorf("merged count = %d", a.Count())
	}
	if a.Min() != 10*time.Microsecond || a.Max() != 30*time.Microsecond {
		t.Errorf("merged min/max = %v/%v", a.Min(), a.Max())
	}
	if a.Mean() != 20*time.Microsecond {
		t.Errorf("merged mean = %v", a.Mean())
	}
}

// TestPercentileAccuracy is the regression test for the histogram's bucket
// resolution: with 16 buckets per octave the midpoint estimate must stay
// within ~4% of the exact percentile computed from the sorted sample.
func TestPercentileAccuracy(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(7))
	const n = 50000
	samples := make([]time.Duration, n)
	for i := range samples {
		// Log-uniform over [1µs, 10ms]: exercises many octaves so the
		// error bound holds across the bucket range, not just one band.
		d := time.Duration(float64(time.Microsecond) * math.Pow(10000, rng.Float64()))
		samples[i] = d
		h.Record(d)
	}
	slices.Sort(samples)
	for _, p := range []float64{10, 25, 50, 90, 99, 99.9} {
		rank := int(math.Ceil(p / 100 * n))
		if rank < 1 {
			rank = 1
		}
		exact := samples[rank-1]
		got := h.Percentile(p)
		relErr := math.Abs(float64(got)-float64(exact)) / float64(exact)
		if relErr > 0.045 {
			t.Errorf("p%v = %v, exact %v: relative error %.3f exceeds bound", p, got, exact, relErr)
		}
	}
	if h.Percentile(100) != samples[n-1] {
		t.Errorf("p100 = %v, want exact max %v", h.Percentile(100), samples[n-1])
	}
}

// TestPercentileWithinRecordedRange: midpoint estimates must never leave
// [min, max], even for edge buckets.
func TestPercentileWithinRecordedRange(t *testing.T) {
	var h Histogram
	h.Record(900 * time.Nanosecond)
	h.Record(910 * time.Nanosecond)
	for _, p := range []float64{1, 50, 99, 100} {
		v := h.Percentile(p)
		if v < h.Min() || v > h.Max() {
			t.Errorf("p%v = %v outside [%v, %v]", p, v, h.Min(), h.Max())
		}
	}
}

// TestStringStable: the summary format is part of the harness output
// contract; keep it stable.
func TestStringStable(t *testing.T) {
	var h Histogram
	h.Record(time.Millisecond)
	s := h.String()
	if !strings.HasPrefix(s, "n=1 mean=") || !strings.Contains(s, "p50=") ||
		!strings.Contains(s, "p99=") || !strings.Contains(s, "max=") {
		t.Errorf("String() format changed: %q", s)
	}
}
