package main

import (
	"slices"
	"testing"
)

// TestPlan: -rate is one rate or a comma-separated sweep, 0 is the closed
// loop, and -verify runs load afterwards only when -rate is given — a
// closed loop included.
func TestPlan(t *testing.T) {
	for _, tc := range []struct {
		rate   string
		verify bool
		want   []float64
	}{
		{"", false, []float64{0}},
		{"", true, nil},
		{"0", true, []float64{0}},
		{"0", false, []float64{0}},
		{"4000", false, []float64{4000}},
		{"2000,5000", false, []float64{2000, 5000}},
		{"2000, 5000,0", true, []float64{2000, 5000, 0}},
	} {
		got, err := plan(tc.rate, tc.verify)
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("plan(%q, verify=%v) = %v, %v; want %v", tc.rate, tc.verify, got, err, tc.want)
		}
	}
	for _, bad := range []string{"fast", "2000,", ",", "-5", "2000,x"} {
		if got, err := plan(bad, false); err == nil {
			t.Errorf("plan(%q) = %v, want an error", bad, got)
		}
	}
}
