package heap

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"kaminotx/internal/nvm"
)

func newHeap(t *testing.T, size int) *Heap {
	t.Helper()
	reg, err := nvm.New(size, nvm.Options{Mode: nvm.ModeStrict})
	if err != nil {
		t.Fatal(err)
	}
	h, err := Format(reg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// alloc reserves and commits in one step, as a caller outside any
// transaction would.
func alloc(t *testing.T, h *Heap, size int) ObjID {
	t.Helper()
	obj, err := h.Reserve(size)
	if err != nil {
		t.Fatalf("Reserve(%d): %v", size, err)
	}
	if err := h.CommitAlloc(obj); err != nil {
		t.Fatalf("CommitAlloc: %v", err)
	}
	return obj
}

func TestFormatAndAttach(t *testing.T) {
	h := newHeap(t, 1<<16)
	if got, _ := h.Root(); got != Nil {
		t.Errorf("fresh root = %d, want Nil", got)
	}
	h2, err := Open(h.Region())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if h2.Bump() != h.Bump() {
		t.Errorf("bump mismatch after reopen: %d vs %d", h2.Bump(), h.Bump())
	}
}

func TestAttachRejectsUnformatted(t *testing.T) {
	reg, _ := nvm.New(1<<16, nvm.Options{Mode: nvm.ModeStrict})
	if _, err := Attach(reg); err == nil {
		t.Error("Attach on unformatted region did not error")
	}
}

func TestAllocWriteRead(t *testing.T) {
	h := newHeap(t, 1<<16)
	obj := alloc(t, h, 100)
	if err := h.Write(obj, 0, []byte("persistent object")); err != nil {
		t.Fatal(err)
	}
	b, err := h.Bytes(obj)
	if err != nil {
		t.Fatal(err)
	}
	if string(b[:17]) != "persistent object" {
		t.Errorf("payload = %q", b[:17])
	}
	cls, err := h.ClassOf(obj)
	if err != nil {
		t.Fatal(err)
	}
	if cls != 128 {
		t.Errorf("ClassOf(100-byte alloc) = %d, want 128", cls)
	}
}

func TestAllocZeroesPayload(t *testing.T) {
	h := newHeap(t, 1<<16)
	obj := alloc(t, h, 64)
	if err := h.Write(obj, 0, []byte{0xAA, 0xBB, 0xCC}); err != nil {
		t.Fatal(err)
	}
	if err := h.ApplyFree(obj); err != nil {
		t.Fatal(err)
	}
	obj2 := alloc(t, h, 64)
	if obj2 != obj {
		t.Fatalf("expected block reuse, got %d and %d", obj, obj2)
	}
	b, _ := h.Bytes(obj2)
	for i, v := range b {
		if v != 0 {
			t.Fatalf("byte %d of recycled alloc = %#x, want 0", i, v)
		}
	}
}

func TestFreeListReuse(t *testing.T) {
	h := newHeap(t, 1<<16)
	a := alloc(t, h, 40) // class 48
	bumpAfterA := h.Bump()
	spares := h.FreeCount(48) // chunk carving pre-formats surplus blocks
	if err := h.ApplyFree(a); err != nil {
		t.Fatal(err)
	}
	if h.FreeCount(48) != spares+1 {
		t.Fatalf("free count = %d, want %d", h.FreeCount(48), spares+1)
	}
	b := alloc(t, h, 33) // also class 48; LIFO pops the just-freed block
	if b != a {
		t.Errorf("free block not reused: %d vs %d", b, a)
	}
	if h.Bump() != bumpAfterA {
		t.Errorf("bump advanced on reuse: %d vs %d", h.Bump(), bumpAfterA)
	}
}

func TestApplyFreeIdempotent(t *testing.T) {
	h := newHeap(t, 1<<16)
	a := alloc(t, h, 16)
	before := h.FreeCount(16)
	if err := h.ApplyFree(a); err != nil {
		t.Fatal(err)
	}
	if err := h.ApplyFree(a); err != nil {
		t.Fatal(err)
	}
	if h.FreeCount(16) != before+1 {
		t.Errorf("double ApplyFree duplicated free-list entry: %d, want %d",
			h.FreeCount(16), before+1)
	}
}

func TestRollbackAllocIdempotent(t *testing.T) {
	h := newHeap(t, 1<<16)
	obj, err := h.Reserve(100)
	if err != nil {
		t.Fatal(err)
	}
	cls := ClassForSize(100)
	before := h.FreeCount(cls)
	// Crash could happen before or after CommitAlloc; rollback must work
	// in both cases and be repeatable.
	if err := h.CommitAlloc(obj); err != nil {
		t.Fatal(err)
	}
	if err := h.RollbackAlloc(obj, cls); err != nil {
		t.Fatal(err)
	}
	if err := h.RollbackAlloc(obj, cls); err != nil {
		t.Fatal(err)
	}
	if h.FreeCount(cls) != before+1 {
		t.Errorf("free count after double rollback = %d, want %d",
			h.FreeCount(cls), before+1)
	}
	alloc2, err := h.Reserve(100)
	if err != nil {
		t.Fatal(err)
	}
	if alloc2 != obj {
		t.Errorf("rolled-back block not reusable")
	}
}

func TestRescanRebuildsFreeLists(t *testing.T) {
	h := newHeap(t, 1<<16)
	var objs []ObjID
	for i := 0; i < 10; i++ {
		objs = append(objs, alloc(t, h, 64))
	}
	for i := 0; i < 10; i += 2 {
		if err := h.ApplyFree(objs[i]); err != nil {
			t.Fatal(err)
		}
	}
	// The free set is the 5 explicitly freed blocks plus any chunk-carve
	// spares that were never committed; rescan must recover exactly it.
	want := h.FreeCount(64)
	h2, err := Open(h.Region())
	if err != nil {
		t.Fatal(err)
	}
	if h2.FreeCount(64) != want {
		t.Errorf("rescan found %d free 64-byte blocks, want %d", h2.FreeCount(64), want)
	}
	// Allocations from the reopened heap must come from the free list, not
	// grow the heap.
	bump := h2.Bump()
	alloc(t, h2, 64)
	if h2.Bump() != bump {
		t.Errorf("reopened heap grew instead of reusing a free block")
	}
	if h2.FreeCount(64) != want-1 {
		t.Errorf("free count after reuse = %d, want %d", h2.FreeCount(64), want-1)
	}
}

func TestPersistedAllocSurvivesCrash(t *testing.T) {
	h := newHeap(t, 1<<16)
	obj := alloc(t, h, 80)
	if err := h.Write(obj, 0, []byte("keepme")); err != nil {
		t.Fatal(err)
	}
	off, n, err := h.Range(obj)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Region().Persist(off, n); err != nil {
		t.Fatal(err)
	}
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	h2, err := Open(h.Region())
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	ok, err := h2.IsAllocated(obj)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("persisted allocation lost after crash")
	}
	b, _ := h2.Bytes(obj)
	if string(b[:6]) != "keepme" {
		t.Errorf("payload after crash = %q", b[:6])
	}
}

func TestReserveBumpPersistedBeforeReturn(t *testing.T) {
	h := newHeap(t, 1<<16)
	if _, err := h.Reserve(64); err != nil {
		t.Fatal(err)
	}
	carved := h.FreeCount(64) // surplus blocks of the carved chunk
	// Crash immediately: the bump (and the chunk's class headers) must be
	// durable so a post-crash rescan still parses the heap.
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	h2, err := Open(h.Region())
	if err != nil {
		t.Fatalf("rescan after crash mid-alloc: %v", err)
	}
	// No block of the chunk was committed, so all of them — including the
	// reserved one — must come back free.
	if h2.FreeCount(64) != carved+1 {
		t.Errorf("free blocks after crash mid-alloc = %d, want %d",
			h2.FreeCount(64), carved+1)
	}
}

func TestHeapFull(t *testing.T) {
	h := newHeap(t, 4096)
	var err error
	for i := 0; i < 1000; i++ {
		_, err = h.Reserve(256)
		if err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("never got ErrHeapFull")
	}
}

func TestSizeValidation(t *testing.T) {
	h := newHeap(t, 1<<16)
	if _, err := h.Reserve(0); err == nil {
		t.Error("Reserve(0) did not error")
	}
	if _, err := h.Reserve(-5); err == nil {
		t.Error("Reserve(-5) did not error")
	}
	if _, err := h.Reserve(MaxAlloc + 1); err == nil {
		t.Error("Reserve(MaxAlloc+1) did not error")
	}
}

func TestBadObjectIDs(t *testing.T) {
	h := newHeap(t, 1<<16)
	alloc(t, h, 64)
	bad := []ObjID{0, 1, ObjID(h.Bump()), ObjID(h.Bump()) + 100, 17}
	for _, obj := range bad {
		if _, err := h.Bytes(obj); err == nil {
			t.Errorf("Bytes(%d) did not error", obj)
		}
	}
}

func TestWriteBounds(t *testing.T) {
	h := newHeap(t, 1<<16)
	obj := alloc(t, h, 64)
	if err := h.Write(obj, 60, []byte("12345")); err == nil {
		t.Error("out-of-object write did not error")
	}
	if err := h.Write(obj, -1, []byte("x")); err == nil {
		t.Error("negative-offset write did not error")
	}
}

func TestRootRoundTrip(t *testing.T) {
	h := newHeap(t, 1<<16)
	obj := alloc(t, h, 32)
	if err := h.SetRoot(obj); err != nil {
		t.Fatal(err)
	}
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	h2, err := Open(h.Region())
	if err != nil {
		t.Fatal(err)
	}
	got, err := h2.Root()
	if err != nil {
		t.Fatal(err)
	}
	if got != obj {
		t.Errorf("root after crash = %d, want %d", got, obj)
	}
}

func TestClassForSize(t *testing.T) {
	cases := []struct{ in, want int }{
		{1, 16}, {16, 16}, {17, 32}, {100, 128}, {1024, 1024},
		{1025, 1536}, {65536, 65536}, {65537, 65552},
		{100000, 100000}, {100001, 100016},
	}
	for _, c := range cases {
		if got := classFor(c.in); got != c.want {
			t.Errorf("classFor(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestHugeAllocation(t *testing.T) {
	h := newHeap(t, 1<<21)
	obj := alloc(t, h, 100000)
	cls, err := h.ClassOf(obj)
	if err != nil {
		t.Fatal(err)
	}
	if cls != 100000 {
		t.Errorf("huge class = %d", cls)
	}
	if err := h.ApplyFree(obj); err != nil {
		t.Fatal(err)
	}
	obj2 := alloc(t, h, 100000)
	if obj2 != obj {
		t.Error("huge block not reused")
	}
}

// TestShardedAllocFreeReopenReuses: after a reopen every free block is
// reused before the bump pointer moves.
func TestShardedAllocFreeReopenReuses(t *testing.T) {
	h := newHeap(t, 1<<18)
	var objs []ObjID
	for i := 0; i < 32; i++ {
		objs = append(objs, alloc(t, h, 64))
	}
	for _, o := range objs {
		if err := h.ApplyFree(o); err != nil {
			t.Fatal(err)
		}
	}
	free := h.FreeCount(64)
	h2, err := Open(h.Region())
	if err != nil {
		t.Fatal(err)
	}
	if h2.FreeCount(64) != free {
		t.Fatalf("free count after reopen = %d, want %d", h2.FreeCount(64), free)
	}
	// Every allocation after reopen must reuse a free block — the bump may
	// not move until the free set is exhausted.
	bump := h2.Bump()
	for i := 0; i < free; i++ {
		alloc(t, h2, 64)
	}
	if h2.Bump() != bump {
		t.Errorf("bump advanced while free blocks remained: %d vs %d", h2.Bump(), bump)
	}
	if h2.FreeCount(64) != 0 {
		t.Errorf("free blocks left after draining: %d", h2.FreeCount(64))
	}
}

// TestRescanDistributionDeterministic: two rescans of one image yield
// identical free lists.
func TestRescanDistributionDeterministic(t *testing.T) {
	h := newHeap(t, 1<<18)
	var objs []ObjID
	for i := 0; i < 24; i++ {
		objs = append(objs, alloc(t, h, 64))
	}
	for i := 0; i < len(objs); i += 3 {
		if err := h.ApplyFree(objs[i]); err != nil {
			t.Fatal(err)
		}
	}
	open := func() map[int][]ObjID {
		h2, err := Open(h.Region())
		if err != nil {
			t.Fatal(err)
		}
		if err := h2.Rescan(); err != nil {
			t.Fatal(err)
		}
		return h2.FreeListSnapshot()
	}
	a, b := open(), open()
	if len(a[64]) != 8 {
		t.Fatalf("class 64 list has %d blocks, want 8", len(a[64]))
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("rescans differ:\n%v\n%v", a, b)
	}
}

func TestConcurrentReserveNoAliasing(t *testing.T) {
	h := newHeap(t, 1<<20)
	const workers, perWorker = 8, 50
	results := make([][]ObjID, workers)
	done := make(chan int, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- w }()
			for i := 0; i < perWorker; i++ {
				obj, err := h.Reserve(64)
				if err != nil {
					t.Error(err)
					return
				}
				if err := h.CommitAlloc(obj); err != nil {
					t.Error(err)
					return
				}
				results[w] = append(results[w], obj)
				if i%3 == 0 {
					if err := h.ApplyFree(obj); err != nil {
						t.Error(err)
						return
					}
					results[w] = results[w][:len(results[w])-1]
				}
			}
		}(w)
	}
	for i := 0; i < workers; i++ {
		<-done
	}
	seen := make(map[ObjID]int)
	for w, objs := range results {
		for _, o := range objs {
			if prev, dup := seen[o]; dup {
				t.Fatalf("block %d handed to workers %d and %d", o, prev, w)
			}
			seen[o] = w
		}
	}
	// The final image must still rescan cleanly.
	if _, err := Open(h.Region()); err != nil {
		t.Fatalf("rescan after concurrent alloc/free: %v", err)
	}
}

// PROPERTY: any interleaving of allocs and frees yields non-overlapping live
// blocks, all within [DataStart, bump), and rescan agrees with the live set.
func TestPropertyNoOverlapAndRescanAgrees(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		reg, err := nvm.New(1<<18, nvm.Options{Mode: nvm.ModeStrict})
		if err != nil {
			return false
		}
		h, err := Format(reg)
		if err != nil {
			return false
		}
		live := make(map[ObjID]int) // obj -> class
		for i := 0; i < 200; i++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				// free a random live object
				var victim ObjID
				k := rng.Intn(len(live))
				for o := range live {
					if k == 0 {
						victim = o
						break
					}
					k--
				}
				if err := h.ApplyFree(victim); err != nil {
					return false
				}
				delete(live, victim)
				continue
			}
			size := 1 + rng.Intn(500)
			obj, err := h.Reserve(size)
			if err != nil {
				return false
			}
			if err := h.CommitAlloc(obj); err != nil {
				return false
			}
			live[obj] = classFor(size)
		}
		// no overlap
		type span struct{ lo, hi uint64 }
		var spans []span
		for o, cls := range live {
			spans = append(spans, span{uint64(o) - BlockHeaderSize, uint64(o) + uint64(cls)})
		}
		for i := range spans {
			if spans[i].lo < DataStart || spans[i].hi > h.Bump() {
				return false
			}
			for j := i + 1; j < len(spans); j++ {
				if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
					return false
				}
			}
		}
		// rescan agreement: every live object must still read allocated
		h2, err := Open(reg)
		if err != nil {
			return false
		}
		for o := range live {
			ok, err := h2.IsAllocated(o)
			if err != nil || !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestCarveFlushesHeadersNotPayloads: a carve of N blocks flushes N header
// lines — nobody has written the payloads — and fences them before it stores
// the bump that exposes them to Rescan, which then takes one line and one
// fence of its own.
func TestCarveFlushesHeadersNotPayloads(t *testing.T) {
	h := newHeap(t, 1<<16)
	reg := h.Region()
	const size = 1024 // 1040-byte blocks: three to a 4 KiB chunk
	n := carveChunkBytes / (BlockHeaderSize + classFor(size))
	oldBump := h.Bump()
	fence := 0
	reg.SetFenceHook(func() {
		fence++
		bump, err := reg.Load64(offBump)
		if err != nil {
			t.Error(err)
			return
		}
		switch fence {
		case 1:
			if bump != oldBump {
				t.Errorf("bump stored before the headers' fence")
			}
		case 2:
			for b := 0; b < n; b++ {
				off := int(oldBump) + b*(BlockHeaderSize+classFor(size))
				if ok, err := reg.IsPersisted(off, BlockHeaderSize); err != nil || !ok {
					t.Errorf("header %d not durable when the bump is fenced (%v)", b, err)
				}
			}
		}
	})
	before := reg.Stats()
	if _, err := h.Reserve(size); err != nil {
		t.Fatal(err)
	}
	reg.SetFenceHook(nil)
	d := reg.Stats()
	if lines := d.LinesFlushed - before.LinesFlushed; lines != uint64(n)+1 {
		t.Errorf("carve of %d blocks flushed %d lines, want %d headers + the bump", n, lines, n)
	}
	if fences := d.Fences - before.Fences; fences != 2 {
		t.Errorf("carve fenced %d times, want 2 (headers, bump)", fences)
	}
	if h.Bump() != oldBump+uint64(n*(BlockHeaderSize+classFor(size))) {
		t.Errorf("bump moved to %d", h.Bump())
	}
}

// TestMarkAllocPersistsNothing: the transactional mark changes the volatile
// view only — a power failure before the caller's commit leaves the block
// free — while CommitAlloc's mark is durable on return.
func TestMarkAllocPersistsNothing(t *testing.T) {
	h := newHeap(t, 1<<16)
	reg := h.Region()
	marked, err := h.Reserve(100)
	if err != nil {
		t.Fatal(err)
	}
	committed, err := h.Reserve(100)
	if err != nil {
		t.Fatal(err)
	}
	before := reg.Stats()
	cls, err := h.MarkAlloc(marked)
	if err != nil || cls != classFor(100) {
		t.Fatalf("MarkAlloc = %d, %v", cls, err)
	}
	if d := reg.Stats(); d.LinesFlushed != before.LinesFlushed || d.Fences != before.Fences {
		t.Fatalf("MarkAlloc flushed %d lines, fenced %d times", d.LinesFlushed-before.LinesFlushed, d.Fences-before.Fences)
	}
	if ok, _ := h.IsAllocated(marked); !ok {
		t.Fatal("marked block does not read allocated")
	}
	if err := h.CommitAlloc(committed); err != nil {
		t.Fatal(err)
	}
	if err := reg.Crash(); err != nil {
		t.Fatal(err)
	}
	h2, err := Open(reg)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := h2.IsAllocated(marked); ok {
		t.Error("a mark nobody persisted survived the power failure")
	}
	if ok, _ := h2.IsAllocated(committed); !ok {
		t.Error("CommitAlloc's block was lost")
	}
}
