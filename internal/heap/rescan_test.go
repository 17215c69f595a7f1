package heap

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"kaminotx/internal/nvm"
)

// powerFail unwinds the heap call a simulated power failure interrupted.
type powerFail struct{}

// armCrash makes reg power-fail at its n-th fence from now, keeping the
// in-doubt lines keep selects, and unwinds the interrupted call.
func armCrash(reg *nvm.Region, n int, keep func(line int) bool) {
	reg.SetFenceHook(func() {
		if n--; n > 0 {
			return
		}
		reg.SetFenceHook(nil)
		if err := reg.CrashPartial(keep); err != nil {
			panic(err)
		}
		panic(powerFail{})
	})
}

// survived runs op and reports whether it finished before the power failed.
func survived(op func()) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, failed := r.(powerFail); !failed {
				panic(r)
			}
			ok = false
		}
	}()
	op()
	return true
}

// rescanImage attaches to reg and checks the scan against the image and the
// model: it must parse, every block it lists must read free and be listed
// once, and no object in live — committed by a CommitAlloc that returned,
// not yet handed to ApplyFree — may be listed.
func rescanImage(t *testing.T, reg *nvm.Region, live map[ObjID]bool) *Heap {
	t.Helper()
	h, err := Attach(reg)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if err := h.Rescan(); err != nil {
		t.Fatalf("Rescan: %v", err)
	}
	listed := make(map[ObjID]bool)
	for cls, list := range h.FreeListSnapshot() {
		for _, obj := range list {
			if listed[obj] {
				t.Fatalf("block %d (class %d) listed twice", obj, cls)
			}
			listed[obj] = true
			if live[obj] {
				t.Fatalf("committed object %d (class %d) is on a free list", obj, cls)
			}
			if alloc, err := h.IsAllocated(obj); err != nil || alloc {
				t.Fatalf("listed block %d: allocated=%v err=%v", obj, alloc, err)
			}
		}
	}
	return h
}

// model is a heap under test beside what must be true of it: live holds
// the objects a returned CommitAlloc committed and no ApplyFree was yet
// called on (order lists them for a seeded pick). The blocks Reserve hands
// out are a function of the calls alone, so two heaps driven by the same
// calls stay in step.
type model struct {
	h     *Heap
	live  map[ObjID]bool
	order []ObjID
}

func newModel(h *Heap) *model {
	return &model{h: h, live: make(map[ObjID]bool)}
}

// step frees one live object picked by rng (free) or allocates size bytes,
// and rescans the image if the power failed inside the call.
func (m *model) step(t *testing.T, rng *rand.Rand, free bool, size int) {
	t.Helper()
	ok := survived(func() {
		if free && len(m.order) > 0 {
			j := rng.Intn(len(m.order))
			obj := m.order[j]
			m.order = append(m.order[:j], m.order[j+1:]...)
			delete(m.live, obj)
			if err := m.h.ApplyFree(obj); err != nil {
				t.Fatalf("ApplyFree: %v", err)
			}
			return
		}
		obj, err := m.h.Reserve(size)
		if errors.Is(err, ErrHeapFull) {
			return
		}
		if err != nil {
			t.Fatalf("Reserve(%d): %v", size, err)
		}
		if err := m.h.CommitAlloc(obj); err != nil {
			t.Fatalf("CommitAlloc: %v", err)
		}
		m.live[obj] = true
		m.order = append(m.order, obj)
	})
	if !ok {
		m.rescan(t)
	}
}

func (m *model) rescan(t *testing.T) {
	t.Helper()
	reg := m.h.Region()
	reg.SetFenceHook(nil)
	m.h = rescanImage(t, reg, m.live)
}

// history drives h through a seeded schedule of allocations and frees in
// which every fortieth call loses power at one of its fences, each time
// with a different subset of the in-doubt lines kept, and returns the heap
// the final rescan built.
func history(t *testing.T, h *Heap, seed int64, steps int) *Heap {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := newModel(h)
	for i := 0; i < steps; i++ {
		if i%40 == 39 {
			armCrash(h.Region(), 1+rng.Intn(3), keepMask(rng.Int63()))
		}
		m.step(t, rng, rng.Intn(3) == 0, 1+rng.Intn(4096))
	}
	m.rescan(t)
	return m.h
}

// keepMask decides each in-doubt line's fate from one bit of mask.
func keepMask(mask int64) func(line int) bool {
	return func(line int) bool { return mask>>(uint(line)%63)&1 == 1 }
}

func TestRescanAfterCrash(t *testing.T) {
	h := history(t, newHeap(t, 4<<20), 23, 600)
	if h.Bump() == DataStart {
		t.Fatal("history allocated nothing")
	}
}

// TestRescanIgnoresReservedHeader: builds before the reserved area was
// reserved kept an image epoch at byte 32, a scan segment span at 40 and a
// directory of block offsets in 64..DataStart. A heap carrying all three
// must attach, and scan to the same free lists as one without, through the
// same history of allocations, frees and partial crashes.
func TestRescanIgnoresReservedHeader(t *testing.T) {
	plain, old := newHeap(t, 4<<20), newHeap(t, 4<<20)
	reg := old.Region()
	if err := reg.Store64(32, 9); err != nil { // epoch
		t.Fatal(err)
	}
	if err := reg.Store64(40, 64<<10); err != nil { // segment span
		t.Fatal(err)
	}
	for off := 64; off < DataStart; off += 8 { // a full directory
		if err := reg.Store64(off, uint64(DataStart+(off-64)*1024)); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.Persist(0, DataStart); err != nil {
		t.Fatal(err)
	}
	old, err := Attach(reg)
	if err != nil {
		t.Fatalf("Attach with the reserved area in use: %v", err)
	}
	plain, old = history(t, plain, 5, 600), history(t, old, 5, 600)
	if plain.Bump() != old.Bump() {
		t.Fatalf("bump %d without the old fields, %d with", plain.Bump(), old.Bump())
	}
	if !reflect.DeepEqual(plain.FreeListSnapshot(), old.FreeListSnapshot()) {
		t.Fatal("free lists differ between a heap with the reserved area zero and one with it in use")
	}
	if e, _ := reg.Load64(32); e != 9 {
		t.Fatalf("reserved byte 32 rewritten to %d", e)
	}
}

// FuzzRescan drives an alloc/free schedule from the fuzz input with power
// failures inside heap calls, and after each failure and at the end holds
// the one scan to rescanImage's checks: the image parses, nothing is listed
// twice or listed while allocated, and no committed object is on a free
// list.
func FuzzRescan(f *testing.F) {
	f.Add(int64(1), []byte{0x10, 0x80, 0x03, 0xff, 0x41})
	f.Add(int64(42), []byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00})
	f.Add(int64(7), []byte{0xfe, 0x01, 0xc0, 0x33, 0x9a, 0x55, 0x12})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		reg, err := nvm.New(1<<20, nvm.Options{Mode: nvm.ModeStrict})
		if err != nil {
			t.Fatal(err)
		}
		h, err := Format(reg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		m := newModel(h)
		for _, op := range ops {
			if op < 0x10 { // the power fails inside one of the next calls
				armCrash(reg, 1+int(op)%4, keepMask(rng.Int63()))
				continue
			}
			m.step(t, rng, op < 0x60, 1+int(op)*17%8192)
		}
		m.rescan(t)
	})
}
