package kamino

import (
	"testing"
	"time"

	"kaminotx/internal/trace"
)

// BenchmarkUpdateTelemetry prices the trace recorder and the online auditor
// as an absolute cost per transaction: the same one-object 1 KiB in-place
// update on kamino-simple with Options.Trace nil (plain), with a recorder
// (recorded), and with a recorder feeding trace.AttachOnline (audited),
// persists costing what the figures charge (300 ns a line, 500 ns a fence).
// DESIGN.md §7.3 records the three figures; the difference between two
// sub-benchmarks is what the facility costs, whatever the transaction
// around it costs.
func BenchmarkUpdateTelemetry(b *testing.B) {
	for _, tc := range []struct {
		name          string
		record, audit bool
	}{
		{name: "plain"},
		{name: "recorded", record: true},
		{name: "audited", record: true, audit: true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			opts := Options{
				Mode:         ModeSimple,
				HeapSize:     16 << 20,
				FlushLatency: 300 * time.Nanosecond,
				FenceLatency: 500 * time.Nanosecond,
			}
			var auditor *trace.OnlineAuditor
			if tc.record {
				opts.Trace = trace.NewRecorder(0)
			}
			if tc.audit {
				auditor = trace.AttachOnline(opts.Trace, trace.OnlineOptions{})
			}
			pool, err := Create(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer pool.Close()
			var obj ObjID
			if err := pool.Update(func(tx *Tx) error {
				var e error
				obj, e = tx.Alloc(1024)
				return e
			}); err != nil {
				b.Fatal(err)
			}
			pool.Drain()
			val := make([]byte, 1024)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				val[0] = byte(i)
				if err := pool.Update(func(tx *Tx) error {
					if err := tx.Add(obj); err != nil {
						return err
					}
					return tx.Write(obj, 0, val)
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			pool.Drain()
			if auditor != nil {
				if vs := auditor.Close(); len(vs) != 0 {
					b.Fatalf("online audit: %d violation(s), first: %s", len(vs), vs[0])
				}
			}
		})
	}
}
