package kvstore

import (
	"bytes"
	"testing"

	"kaminotx/internal/race"
	"kaminotx/kamino"
)

// Allocation pins, beside the device pins: what one store operation costs
// the Go heap at the gated benchmark's shape (50 000 keys of 1 KiB, order
// 60, three levels). testing.AllocsPerRun counts every goroutine's
// allocations, Kamino's applier included, and truncates the mean, so an
// amortized refill (a sync.Pool emptied by a collection, a map growing)
// does not show. `go test ./internal/kvstore -run TestAllocs -v` prints the
// table; DESIGN.md §13 records it.

const allocKeys = 50_000

// allocCeilings are the pinned allocations per operation, per engine: what
// each reached when the pins were written (PR 24; the parent read 25–30 and
// 28–30), so a new allocation anywhere on the path shows as a failure here.
// An Update is an in-place overwrite of an existing key — the public Tx
// handle and the engine's transaction, neither recycled because a kept
// handle must go on answering ErrTxDone; copy-on-write adds its shadow map
// and the entries it reads back to copy from, the dynamic backup its LRU
// bookkeeping. A Read is a hit: the same two and the copy of the value it
// returns.
var allocCeilings = []struct {
	mode         kamino.Mode
	update, read float64
}{
	{kamino.ModeSimple, 2, 3},
	{kamino.ModeDynamic, 5, 3},
	{kamino.ModeUndo, 2, 3},
	{kamino.ModeCoW, 5, 3},
	{kamino.ModeNoLog, 2, 3},
	{kamino.ModeInPlace, 2, 3},
}

// batchCeiling is allocations per operation of a 16-key ApplyBatch on
// kamino-simple (23 a batch; the parent read 263): the batch's own slice,
// sort and leaf set ride on one transaction's skeleton, shared sixteen ways.
const batchCeiling = 1.5

func allocStore(t *testing.T, mode kamino.Mode) *Store {
	t.Helper()
	if race.Enabled {
		t.Skip("testing.AllocsPerRun is meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("preloads 50 000 keys per engine")
	}
	pool, err := kamino.Create(kamino.Options{Mode: mode, HeapSize: 128 << 20, LogSlots: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	s, err := Create(pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{1}, devValue)
	for k := uint64(0); k < allocKeys; k++ {
		if err := s.Insert(k, val); err != nil {
			t.Fatal(err)
		}
	}
	pool.Drain()
	return s
}

func TestAllocsPerOp(t *testing.T) {
	for _, c := range allocCeilings {
		t.Run(string(c.mode), func(t *testing.T) {
			s := allocStore(t, c.mode)
			val := bytes.Repeat([]byte{2}, devValue)
			i := uint64(0)
			next := func() uint64 { i++; return i * 7919 % allocKeys }
			update := testing.AllocsPerRun(2000, func() {
				if err := s.Update(next(), val); err != nil {
					t.Fatal(err)
				}
			})
			s.Pool().Drain()
			read := testing.AllocsPerRun(2000, func() {
				if _, ok, err := s.Read(next()); err != nil || !ok {
					t.Fatalf("Read: %v %v", ok, err)
				}
			})
			t.Logf("%-15s Update %2.0f allocs/op (ceiling %2.0f)   Read %2.0f allocs/op (ceiling %2.0f)",
				c.mode, update, c.update, read, c.read)
			if update > c.update {
				t.Errorf("Update allocates %.0f times, ceiling %.0f", update, c.update)
			}
			if read > c.read {
				t.Errorf("Read allocates %.0f times, ceiling %.0f", read, c.read)
			}
		})
	}
}

func TestAllocsPerBatchedOp(t *testing.T) {
	s := allocStore(t, kamino.ModeSimple)
	val := bytes.Repeat([]byte{3}, devValue)
	const batch = 16
	ops := make([]Op, batch)
	base := uint64(0)
	perBatch := testing.AllocsPerRun(500, func() {
		base = (base + 7919) % (allocKeys - batch)
		for j := range ops {
			ops[j] = Op{Key: base + uint64(j), Value: val}
		}
		if err := s.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
	})
	perOp := perBatch / batch
	t.Logf("kamino-simple   ApplyBatch(%d) %.0f allocs/batch, %.2f allocs/op (ceiling %.1f)", batch, perBatch, perOp, batchCeiling)
	if perOp > batchCeiling {
		t.Errorf("ApplyBatch(%d) allocates %.2f times per operation, ceiling %.1f", batch, perOp, batchCeiling)
	}
}
