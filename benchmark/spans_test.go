package main

import "testing"

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: [10,50) counts once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the root's end
		{ID: 5, Parent: 3, Name: "b.child", Start: 25, End: 35},
		{ID: 6, Name: "lone", Start: 5, End: 9},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 100 - 40 - 10, 2: 20, 3: 20, 4: 30, 5: 10, 6: 4} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestRecorderKeepsTheMostRecentSpans(t *testing.T) {
	r := newRecorder(0)
	r.ring = make([]span, 4)
	for i := int64(0); i < 6; i++ {
		r.add(0, uint64(i), "s", i, i+1)
	}
	kept, dropped := r.spans()
	if dropped != 2 || len(kept) != 4 {
		t.Fatalf("kept %d dropped %d", len(kept), dropped)
	}
	for i, s := range kept {
		if s.Start != int64(i+2) {
			t.Fatalf("span %d starts at %d, want %d", i, s.Start, i+2)
		}
	}
	if id := (*recorder)(nil).add(0, 0, "off", 0, 1); id != 0 {
		t.Fatal("a nil recorder must record nothing")
	}
	a, b := newRecorder(0).add(0, 0, "x", 0, 1), newRecorder(1).add(0, 0, "x", 0, 1)
	if a == b {
		t.Fatal("span ids collide across recorders")
	}
}
