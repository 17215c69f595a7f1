package trace_test

// External test package: nvm imports trace for its device hooks, so checks
// driven by real region traffic must live outside package trace.

import (
	"testing"

	"kaminotx/internal/nvm"
	"kaminotx/internal/trace"
)

// The region tracer hooks must report crashes, and the auditor must treat
// everything before one as reconciled.
func TestRegionCrashEventEmitted(t *testing.T) {
	rec := trace.NewRecorder(0)
	reg, err := nvm.New(1<<14, nvm.Options{Mode: nvm.ModeStrict})
	if err != nil {
		t.Fatal(err)
	}
	reg.SetTracer(rec.Tracer("undo#1/main"))
	if err := reg.Write(0, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := reg.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := reg.CrashPartial(func(int) bool { return true }); err != nil {
		t.Fatal(err)
	}
	var kinds []trace.Kind
	for _, e := range rec.Events() {
		kinds = append(kinds, e.Kind)
	}
	want := []trace.Kind{trace.KindWrite, trace.KindCrash, trace.KindCrashPartial}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
}
