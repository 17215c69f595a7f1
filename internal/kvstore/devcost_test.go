package kvstore

import (
	"bytes"
	"testing"

	"kaminotx/kamino"
)

// Device-cost pins and benchmarks: what one put costs the simulated NVM, in
// the units the gated benchmark's ladder reports (nvm.fences_per_put,
// nvm.lines_flushed_per_put, nvm.bytes_written_per_put), so the counts are
// pinned next to the code that produces them and `go test -bench` agrees
// with the artifact.

// devCounts is the cumulative device work of a pool's regions, read from
// the nvm.Region.Stats() gauges the pool's registry exports.
type devCounts struct {
	fences, lines     uint64
	main, backup, log uint64 // bytes written per region
}

func readDev(pool *kamino.Pool) devCounts {
	g := pool.Obs().Snapshot().Gauges
	var c devCounts
	for _, reg := range []string{"main", "backup", "log"} {
		c.fences += g["nvm."+reg+".fences"]
		c.lines += g["nvm."+reg+".lines_flushed"]
	}
	c.main, c.backup, c.log = g["nvm.main.bytes_written"], g["nvm.backup.bytes_written"], g["nvm.log.bytes_written"]
	return c
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

// TestInsertAndGrowStillPersistTheLeaf: the two paths that store into the
// leaf must keep paying for it — more main bytes than the value alone, and
// a backup copy of the same.
func TestInsertAndGrowStillPersistTheLeaf(t *testing.T) {
	pool, s := devStore(t, 200)
	for name, put := range map[string]func() error{
		"insert": func() error { return s.Insert(1000, bytes.Repeat([]byte{3}, devValue)) },
		"grow":   func() error { return s.Update(77, bytes.Repeat([]byte{3}, 2*devValue)) },
	} {
		before := readDev(pool)
		if err := put(); err != nil {
			t.Fatal(err)
		}
		pool.Drain()
		got := readDev(pool).sub(before)
		leaf := uint64(8 + 8*s.Tree().Order() + 8*(s.Tree().Order()+1))
		if got.main < 4+devValue+leaf || got.backup < 4+devValue+leaf {
			t.Errorf("%s wrote %d B to main and %d B to backup: the %d-byte leaf is missing", name, got.main, got.backup, leaf)
		}
		if got.fences <= 5 {
			t.Errorf("%s took %d fences; it logs more than one object", name, got.fences)
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

func BenchmarkInsert(b *testing.B) {
	pool, s := devStore(b, 0)
	val := bytes.Repeat([]byte{4}, devValue)
	benchDevice(b, pool, func(i int) error { return s.Insert(uint64(i), val) })
}
