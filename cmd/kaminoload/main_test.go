package main

import (
	"slices"
	"testing"
)

// TestPlan: -rate is one rate or a comma-separated sweep, 0 is the closed
// loop, and -preload or -verify runs load afterwards only when -rate is
// given — a closed loop included.
func TestPlan(t *testing.T) {
	for _, tc := range []struct {
		rate            string
		preload, verify bool
		want            []float64
	}{
		{"", false, false, []float64{0}},
		{"", false, true, nil},
		{"", true, false, nil},
		{"", true, true, nil},
		{"0", false, true, []float64{0}},
		{"0", true, false, []float64{0}},
		{"0", false, false, []float64{0}},
		{"4000", false, false, []float64{4000}},
		{"2000,5000", true, false, []float64{2000, 5000}},
		{"2000, 5000,0", false, true, []float64{2000, 5000, 0}},
	} {
		got, err := plan(tc.rate, tc.preload, tc.verify)
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("plan(%q, preload=%v, verify=%v) = %v, %v; want %v", tc.rate, tc.preload, tc.verify, got, err, tc.want)
		}
	}
	for _, bad := range []string{"fast", "2000,", ",", "-5", "2000,x"} {
		if got, err := plan(bad, false, false); err == nil {
			t.Errorf("plan(%q) = %v, want an error", bad, got)
		}
	}
}
