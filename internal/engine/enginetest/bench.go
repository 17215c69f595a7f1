package enginetest

import (
	"bytes"
	"testing"

	"kaminotx/internal/heap"
)

// BenchTx1 is the benchmark ladder's engine rung, for any engine: one
// transaction adds one object and overwrites 1 KiB of it. Beside ns/op and
// allocs/op it reports the device work per transaction in the ladder's
// units, summed over the engine's regions.
func BenchTx1(b *testing.B, f Factory) {
	const valueSize, objects = 1024, 128
	inst := f.New(b)
	e := inst.Engine
	defer e.Close()
	objs := make([]heap.ObjID, objects)
	for i := range objs {
		tx, err := e.Begin()
		if err != nil {
			b.Fatal(err)
		}
		if objs[i], err = tx.Alloc(valueSize + 4); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	e.Drain()
	val := bytes.Repeat([]byte{3}, valueSize)
	fields := []string{"fences", "lines_flushed", "bytes_written"}
	before := deviceCounts(e, fields...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := e.Begin()
		if err != nil {
			b.Fatal(err)
		}
		obj := objs[i*31%objects]
		if err := tx.Add(obj); err != nil {
			b.Fatal(err)
		}
		if err := tx.Write(obj, 0, val); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	e.Drain()
	after := deviceCounts(e, fields...)
	per := func(field string) float64 { return float64(after[field]-before[field]) / float64(b.N) }
	b.ReportMetric(per("fences"), "fences/op")
	b.ReportMetric(per("lines_flushed"), "lines/op")
	b.ReportMetric(per("bytes_written"), "B-written/op")
}
