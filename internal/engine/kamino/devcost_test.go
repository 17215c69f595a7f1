package kamino

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"kaminotx/internal/engine"
	"kaminotx/internal/heap"
	"kaminotx/internal/nvm"
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

// runs collects an extent's runs as [off, n] pairs.
func runs(t *testing.T, x engine.Extent, obj heap.ObjID) [][2]int {
	t.Helper()
	var out [][2]int
	if err := x.Runs(obj, func(off, n int) error {
		out = append(out, [2]int{off, n})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestExtentGrow(t *testing.T) {
	const obj = heap.ObjID(4096) // its block starts 48 bytes into line 63
	var x engine.Extent
	if _, n := x.Range(obj); n != 0 {
		t.Fatalf("zero extent covers %d bytes", n)
	}
	x.Grow(obj, 100, 0) // an empty store dirties nothing
	if _, n := x.Range(obj); n != 0 || runs(t, x, obj) != nil {
		t.Fatalf("empty store grew the extent to %d bytes", n)
	}
	x.Grow(obj, 100, 10)
	x.Grow(obj, 40, 4)
	x.Grow(obj, 60, 8)
	if off, n := x.Range(obj); off != 4096+40 || n != 70 {
		t.Fatalf("extent = [%d,+%d), want [%d,+70)", off, n, 4096+40)
	}
	if got := runs(t, x, obj); !reflect.DeepEqual(got, [][2]int{{4096 + 40, 70}}) {
		t.Fatalf("runs of two adjacent lines = %v", got)
	}
	if off, n := engine.WholeBlock(obj, 256).Range(obj); off != 4096-heap.BlockHeaderSize || n != heap.BlockHeaderSize+256 {
		t.Fatalf("whole block = [%d,+%d)", off, n)
	}

	// Two stores seven lines apart are two runs: each clipped to the bytes
	// stored at its outer edge, whole lines inside.
	var y engine.Extent
	y.Grow(obj, 0, 4)
	y.Grow(obj, 500, 8)
	if got, want := runs(t, y, obj), [][2]int{{4096, 64}, {4544, 60}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("scattered runs = %v, want %v", got, want)
	}
	// A free marks the header line alone.
	var f engine.Extent
	f.Mark(obj, 0, heap.BlockHeaderSize)
	if got := runs(t, f, obj); !reflect.DeepEqual(got, [][2]int{{4080, heap.BlockHeaderSize}}) {
		t.Fatalf("header runs = %v", got)
	}
	// A block past 64 lines keeps its covering range.
	big := engine.WholeBlock(obj, 8192)
	big.Grow(obj, 10, 1)
	if got := runs(t, big, obj); !reflect.DeepEqual(got, [][2]int{{4080, heap.BlockHeaderSize + 8192}}) {
		t.Fatalf("runs of a 130-line block = %v", got)
	}
}

// TestExtentRunsCoverExactlyTheStoredLines checks Runs against a per-line
// model over random stores: every byte stored is covered, the lines flushed
// are exactly the lines stored into, and no run leaves the covering range.
func TestExtentRunsCoverExactlyTheStoredLines(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		obj := heap.ObjID(heap.DataStart + heap.BlockHeaderSize + 16*rng.Intn(64))
		class := 16 * (1 + rng.Intn(192)) // up to 3072: at most 50 lines
		var x engine.Extent
		stored := map[int]bool{} // region lines
		var bytesIn [][2]int
		for s := rng.Intn(4); s >= 0; s-- {
			off := rng.Intn(class)
			n := 1 + rng.Intn(class-off)
			x.Grow(obj, off, n)
			lo := int(obj) + off
			bytesIn = append(bytesIn, [2]int{lo, lo + n})
			for l := lo / nvm.LineSize; l <= (lo+n-1)/nvm.LineSize; l++ {
				stored[l] = true
			}
		}
		covOff, covN := x.Range(obj)
		flushed := map[int]bool{}
		covered := map[int]bool{} // region bytes
		prevEnd := -1
		for _, r := range runs(t, x, obj) {
			if r[0] < covOff || r[0]+r[1] > covOff+covN || r[1] <= 0 || r[0] <= prevEnd {
				t.Fatalf("obj %d class %d: run %v outside [%d,+%d) or out of order", obj, class, r, covOff, covN)
			}
			prevEnd = r[0] + r[1]
			for l := r[0] / nvm.LineSize; l <= (r[0]+r[1]-1)/nvm.LineSize; l++ {
				flushed[l] = true
			}
			for b := r[0]; b < r[0]+r[1]; b++ {
				covered[b] = true
			}
		}
		if !reflect.DeepEqual(flushed, stored) {
			t.Fatalf("obj %d class %d: lines flushed %v, stored %v", obj, class, flushed, stored)
		}
		for _, s := range bytesIn {
			for b := s[0]; b < s[1]; b++ {
				if !covered[b] {
					t.Fatalf("obj %d class %d: byte %d of store %v in no run", obj, class, b, s)
				}
			}
		}
	}
}
