package kamino

import (
	"bytes"
	"testing"

	"kaminotx/internal/engine"
	"kaminotx/internal/heap"
)

func allocFilled(t testing.TB, e *Engine, size int) heap.ObjID {
	t.Helper()
	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	obj, err := tx.Alloc(size)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(obj, 0, bytes.Repeat([]byte{7}, size)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	return obj
}

// TestCommitPersistsOnlyTheDirtyExtent: a transaction's device work follows
// what it wrote, not the size of the objects it declared. A 10-byte store
// into a 1000-byte object flushes one line and copies 10 bytes to the
// backup; an object added but never written costs the heap and the backup
// nothing at all — and an abort still restores whole objects.
func TestCommitPersistsOnlyTheDirtyExtent(t *testing.T) {
	for name, backupSize := range map[string]int{"simple": mainSize, "dynamic": mainSize / 2} {
		m, b, l := regions(t, backupSize)
		e, err := New(m, b, l, testCfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		written, idle := allocFilled(t, e, 1000), allocFilled(t, e, 1000)
		// Give the dynamic backend copies of both (a first Add misses).
		for _, obj := range []heap.ObjID{written, idle} {
			tx, _ := e.Begin()
			if err := tx.Add(obj); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		e.Drain()

		mainBefore, backupBefore := m.Stats(), b.Stats()
		tx, _ := e.Begin()
		for _, obj := range []heap.ObjID{written, idle} {
			if err := tx.Add(obj); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Write(written, 100, bytes.Repeat([]byte{9}, 10)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		e.Drain()
		mainNow, backupNow := m.Stats(), b.Stats()
		if got := mainNow.LinesFlushed - mainBefore.LinesFlushed; got != 1 {
			t.Errorf("%s: commit flushed %d heap lines, want 1", name, got)
		}
		if got := backupNow.BytesWritten - backupBefore.BytesWritten; got != 10 {
			t.Errorf("%s: backup sync wrote %d bytes, want 10", name, got)
		}
		if got := backupNow.Fences - backupBefore.Fences; got != 1 {
			t.Errorf("%s: backup sync fenced %d times, want 1 (the unwritten object needs none)", name, got)
		}

		// The backup still mirrors the whole object: abort a scribble.
		tx, _ = e.Begin()
		if err := tx.Add(written); err != nil {
			t.Fatal(err)
		}
		if err := tx.Write(written, 0, bytes.Repeat([]byte{0xEE}, 1000)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		want := bytes.Repeat([]byte{7}, 1000)
		copy(want[100:], bytes.Repeat([]byte{9}, 10))
		if got, _ := e.Heap().Bytes(written); !bytes.Equal(got[:1000], want) {
			t.Errorf("%s: abort did not restore the committed contents", name)
		}
	}
}

func TestExtentGrow(t *testing.T) {
	var x engine.Extent
	if _, n := x.Range(4096); n != 0 {
		t.Fatalf("zero extent covers %d bytes", n)
	}
	x.Grow(100, 0) // an empty store dirties nothing
	if _, n := x.Range(4096); n != 0 {
		t.Fatalf("empty store grew the extent to %d bytes", n)
	}
	x.Grow(100, 10)
	x.Grow(40, 4)
	x.Grow(60, 8)
	if off, n := x.Range(4096); off != 4096+40 || n != 70 {
		t.Fatalf("extent = [%d,+%d), want [%d,+70)", off, n, 4096+40)
	}
	if off, n := engine.WholeBlock(256).Range(4096); off != 4096-heap.BlockHeaderSize || n != heap.BlockHeaderSize+256 {
		t.Fatalf("whole block = [%d,+%d)", off, n)
	}
}
