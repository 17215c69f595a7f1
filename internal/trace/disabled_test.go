package trace_test

import (
	"testing"

	"kaminotx/internal/nvm"
	"kaminotx/internal/trace"
)

// An uninstrumented run must pay nothing for the trace hooks: every
// Tracer method on a nil receiver is one predictable branch, zero
// allocations. This is the machine check for that contract — if someone
// adds a fmt.Sprintf or a slice append ahead of the nil check, this
// fails.
func TestDisabledTracerZeroAlloc(t *testing.T) {
	var tr *trace.Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		tr.TxBegin(1)
		tr.LockAcquire(1, 4096)
		tr.IntentAppend(1, 4096, 0, 64, "write")
		tr.InPlaceWrite(1, 4096, 0, 64)
		tr.BackupSync(1, 4096)
		tr.CommitMarker(1)
		tr.DevWrite(0, 64)
		tr.DevFlush(0, 64)
		tr.DevFence()
		tr.ChainForward(1)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocated %.1f times per run, want 0", allocs)
	}
	if tr.Enabled() {
		t.Fatal("nil tracer claims to be enabled")
	}
	if tr.Actor() != "" {
		t.Fatal("nil tracer has an actor")
	}
}

// Regions without SetTracer must likewise emit nothing and allocate
// nothing on the hot path (steady state: the first Write faults in
// dirty-line tracking, which AllocsPerRun's warm-up absorbs).
func TestUntracedRegionZeroAlloc(t *testing.T) {
	reg, err := nvm.New(1<<12, nvm.Options{Mode: nvm.ModeStrict})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	allocs := testing.AllocsPerRun(1000, func() {
		if err := reg.Write(0, buf); err != nil {
			t.Fatal(err)
		}
		if err := reg.Flush(0, len(buf)); err != nil {
			t.Fatal(err)
		}
		reg.Fence()
	})
	if allocs != 0 {
		t.Fatalf("untraced region allocated %.1f times per persist cycle, want 0", allocs)
	}
}

// BenchmarkDisabledTracer measures the per-event cost of tracing-off:
// expected ~1ns/op, 0 B/op, 0 allocs/op. Run with -benchmem.
func BenchmarkDisabledTracer(b *testing.B) {
	var tr *trace.Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.InPlaceWrite(uint64(i), 4096, 0, 64)
	}
}

// BenchmarkEnabledTracer is the comparison point: the cost of one
// recorded event (lock, stamp, ring store).
func BenchmarkEnabledTracer(b *testing.B) {
	rec := trace.NewRecorder(1 << 16)
	tr := rec.Tracer("undo#1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.InPlaceWrite(uint64(i), 4096, 0, 64)
	}
}
