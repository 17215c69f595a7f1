package halving

import (
	"errors"
	"slices"
	"testing"
)

// One bad member of eight: it ends alone, everyone else still shares a
// run, and the retries are logarithmic.
func TestRunIsolatesTheCulprit(t *testing.T) {
	bad := errors.New("bad")
	var ok [][]int
	var failed []int
	splits := 0
	err := Run([]int{0, 1, 2, 3, 4, 5, 6, 7}, func(b []int) error {
		if slices.Contains(b, 5) {
			if len(b) == 1 {
				failed = append(failed, b[0])
				return nil // recorded; keep going
			}
			return bad
		}
		ok = append(ok, slices.Clone(b))
		return nil
	}, func() { splits++ })
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1, 2, 3}, {4}, {6, 7}}
	if !slices.EqualFunc(ok, want, slices.Equal[[]int]) || !slices.Equal(failed, []int{5}) || splits != 3 {
		t.Errorf("ran %v, failed %v, %d splits; want %v, [5], 3", ok, failed, splits, want)
	}
}

// A single member's error stops the recursion: nothing after it runs.
func TestRunStopsOnSingleMemberError(t *testing.T) {
	bad := errors.New("bad")
	var ran []int
	err := Run([]int{0, 1, 2, 3}, func(b []int) error {
		if len(b) > 1 {
			return bad
		}
		ran = append(ran, b[0])
		if b[0] == 1 {
			return bad
		}
		return nil
	}, func() {})
	if !errors.Is(err, bad) || !slices.Equal(ran, []int{0, 1}) {
		t.Errorf("err %v after running %v; want bad after [0 1]", err, ran)
	}
}
