package kvstore

import (
	"bytes"
	"fmt"
	"testing"

	"kaminotx/kamino"
)

// Device-cost pins and benchmarks: what one put costs the simulated NVM, in
// the units the gated benchmark's ladder reports (nvm.fences_per_put,
// nvm.lines_flushed_per_put, nvm.bytes_written_per_put), so the counts are
// pinned next to the code that produces them and `go test -bench` agrees
// with the artifact.

// devCounts is the cumulative device work of a pool's regions: fences and
// lines summed, bytes written per region.
type devCounts struct {
	fences, lines     uint64
	main, backup, log uint64 // bytes written per region
}

// regionCost is the cumulative device work on one region, read from the
// nvm.Region.Stats() gauges the pool's registry exports.
type regionCost struct{ fences, lines, bytes uint64 }

// poolCost is the device work on each of a pool's regions.
type poolCost struct{ main, backup, log regionCost }

func readRegions(pool *kamino.Pool) poolCost {
	g := pool.Obs().Snapshot().Gauges
	get := func(reg string) regionCost {
		return regionCost{g["nvm."+reg+".fences"], g["nvm."+reg+".lines_flushed"], g["nvm."+reg+".bytes_written"]}
	}
	return poolCost{get("main"), get("backup"), get("log")}
}

func (c poolCost) sub(o poolCost) poolCost {
	d := func(a, b regionCost) regionCost {
		return regionCost{a.fences - b.fences, a.lines - b.lines, a.bytes - b.bytes}
	}
	return poolCost{d(c.main, o.main), d(c.backup, o.backup), d(c.log, o.log)}
}

func readDev(pool *kamino.Pool) devCounts {
	r := readRegions(pool)
	return devCounts{
		fences: r.main.fences + r.backup.fences + r.log.fences,
		lines:  r.main.lines + r.backup.lines + r.log.lines,
		main:   r.main.bytes, backup: r.backup.bytes, log: r.log.bytes,
	}
}

func (c devCounts) sub(o devCounts) devCounts {
	return devCounts{c.fences - o.fences, c.lines - o.lines, c.main - o.main, c.backup - o.backup, c.log - o.log}
}

func (c devCounts) bytes() uint64 { return c.main + c.backup + c.log }

const devValue = 1024 // the benchmark's value size

func devStore(tb testing.TB, keys uint64) (*kamino.Pool, *Store) {
	tb.Helper()
	pool, err := kamino.Create(kamino.Options{Mode: kamino.ModeSimple, HeapSize: 64 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { pool.Close() })
	s, err := Create(pool, 0)
	if err != nil {
		tb.Fatal(err)
	}
	val := bytes.Repeat([]byte{1}, devValue)
	for k := uint64(0); k < keys; k++ {
		if err := s.Insert(k, val); err != nil {
			tb.Fatal(err)
		}
	}
	pool.Drain()
	return pool, s
}

// TestUpdateExistingDeviceCost pins the in-place update: the transaction
// persists the value object and nothing else. Five fences (slot open +
// intent, heap, commit marker, backup sync, slot release); the bytes written
// to main and to the backup are exactly the value's — no leaf byte.
func TestUpdateExistingDeviceCost(t *testing.T) {
	pool, s := devStore(t, 200)
	before := readDev(pool)
	if err := s.Update(77, bytes.Repeat([]byte{2}, devValue)); err != nil {
		t.Fatal(err)
	}
	pool.Drain()
	got := readDev(pool).sub(before)
	const stored = 4 + devValue // length prefix + bytes
	want := devCounts{
		fences: 5,
		lines:  2 + 17 + 1 + 17 + 1, // header+entry, value, marker, value copy, release
		main:   stored,
		backup: stored,
		log:    20 + 32 + 4 + 4, // header, entry, commit marker, release
	}
	if got != want {
		t.Fatalf("in-place update cost %+v, want %+v", got, want)
	}
}

// TestInsertAndGrowStillPersistTheLeaf pins, per region, the paths that store
// into a leaf, run in this order on one store of 200 keys (whose 200 values
// used up their last carved chunk):
//
//   - insert-end: key 1000 lands at the end of the last leaf. The value's
//     allocation carves a chunk of two blocks (two header lines under one
//     fence, then the bump's line and fence); the commit flushes the value's
//     block whole (25 lines), once, and the three leaf lines holding the key
//     count, the new key and the new pointer.
//   - grow: key 77's value outgrows its object (2 KiB into a 3 KiB class):
//     a carve of one block, the new block whole (49 lines), the old block's
//     header line (the free; ApplyFree persists it again after the marker),
//     and the one leaf line holding the repointed pointer.
//   - delete: key 100 leaves its leaf: the eight lines in which keys and
//     pointers shift down a slot, and the value's header line.
//   - insert-mid: key 100 comes back into the middle of its leaf, reusing
//     the block the delete freed (no carve).
//
// The backup receives exactly the lines main flushed at the commit. Before
// these pins, carves flushed their chunks whole, an allocation persisted its
// block under its own fence and again at the commit, a free flushed and
// backed up its whole block, and a leaf was flushed and backed up whole;
// per region (fences/lines/bytes) that read:
//
//	insert-end  main 4/116/3559  backup 2/41/2528  log 4/6/96
//	grow        main 5/190/6115  backup 3/90/5616  log 6/10/168
//	delete      main 2/42/977    backup 2/41/2528  log 4/6/96
//	insert-mid  main 2/66/3541   backup 2/41/2528  log 4/6/96
func TestInsertAndGrowStillPersistTheLeaf(t *testing.T) {
	pool, s := devStore(t, 200)
	val := func(n int) []byte { return bytes.Repeat([]byte{3}, n) }
	for _, c := range []struct {
		name string
		op   func() error
		want poolCost
	}{
		{"insert-end", func() error { return s.Insert(1000, val(devValue)) },
			poolCost{main: regionCost{3, 31, 2727}, backup: regionCost{2, 28, 1696}, log: regionCost{4, 6, 96}}},
		{"grow", func() error { return s.Update(77, val(2*devValue)) },
			poolCost{main: regionCost{4, 54, 5203}, backup: regionCost{3, 51, 3168}, log: regionCost{6, 10, 168}}},
		{"delete", func() error {
			if ok, err := s.Delete(100); err != nil || !ok {
				return fmt.Errorf("delete: %v %v", ok, err)
			}
			return nil
		}, poolCost{main: regionCost{2, 10, 465}, backup: regionCost{2, 9, 480}, log: regionCost{4, 6, 96}}},
		{"insert-mid", func() error { return s.Insert(100, val(devValue)) },
			poolCost{main: regionCost{1, 33, 3029}, backup: regionCost{2, 33, 2016}, log: regionCost{4, 6, 96}}},
	} {
		before := readRegions(pool)
		if err := c.op(); err != nil {
			t.Fatal(err)
		}
		pool.Drain()
		got := readRegions(pool).sub(before)
		t.Logf("%-10s  main %d/%d/%d  backup %d/%d/%d  log %d/%d/%d (fences/lines/bytes)", c.name,
			got.main.fences, got.main.lines, got.main.bytes, got.backup.fences, got.backup.lines, got.backup.bytes,
			got.log.fences, got.log.lines, got.log.bytes)
		if got != c.want {
			t.Errorf("%s cost %+v, want %+v", c.name, got, c.want)
		}
	}
}

func benchDevice(b *testing.B, pool *kamino.Pool, put func(i int) error) {
	b.Helper()
	pool.Drain()
	before := readDev(pool)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := put(i); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	pool.Drain()
	d := readDev(pool).sub(before)
	n := float64(b.N)
	b.ReportMetric(float64(d.fences)/n, "fences/op")
	b.ReportMetric(float64(d.lines)/n, "lines/op")
	b.ReportMetric(float64(d.bytes())/n, "B-written/op")
}

func BenchmarkUpdateExisting(b *testing.B) {
	const keys = 2000
	pool, s := devStore(b, keys)
	val := bytes.Repeat([]byte{4}, devValue)
	benchDevice(b, pool, func(i int) error { return s.Update(uint64(i*7919)%keys, val) })
}

// BenchmarkInsert reports what one insert of a fresh 1 KiB key costs the
// device, splits and carves included: at -benchtime=10000x 8.16 fences,
// 66.8 lines and 4789 B written per insert (DESIGN.md §13). The store's
// 64 MiB heap holds some 30 000 inserts, fewer than a timed run makes: give
// -benchtime as a count.
func BenchmarkInsert(b *testing.B) {
	pool, s := devStore(b, 0)
	val := bytes.Repeat([]byte{4}, devValue)
	benchDevice(b, pool, func(i int) error { return s.Insert(uint64(i), val) })
}
