package inplace_test

import (
	"bytes"
	"testing"

	"kaminotx/internal/engine/enginetest"
	"kaminotx/internal/engine/inplace"
	"kaminotx/internal/heap"
	"kaminotx/internal/intentlog"
	"kaminotx/internal/nvm"
)

var logCfg = intentlog.Config{Slots: 16, EntriesPerSlot: 16}

func newEngine(t testing.TB) (*inplace.Engine, *nvm.Region, *nvm.Region) {
	return newEngineMode(t, nvm.ModeStrict)
}

func newEngineMode(t testing.TB, mode nvm.Mode) (*inplace.Engine, *nvm.Region, *nvm.Region) {
	t.Helper()
	heapReg, err := nvm.New(1<<20, nvm.Options{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	cfg := logCfg
	cfg.DataBytesPerSlot = 0
	logReg, err := nvm.New(cfg.RegionSize(), nvm.Options{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	e, err := inplace.New(heapReg, logReg, logCfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, heapReg, logReg
}

func TestCommitAndReopen(t *testing.T) {
	e, heapReg, logReg := newEngine(t)
	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	obj, err := tx.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(obj, 0, []byte("replica data")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := heapReg.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := logReg.Crash(); err != nil {
		t.Fatal(err)
	}
	e2, err := inplace.Open(heapReg, logReg)
	if err != nil {
		t.Fatal(err)
	}
	if len(e2.PendingRecovery()) != 0 {
		t.Fatal("clean commit left pending recovery")
	}
	b, err := e2.Heap().Bytes(obj)
	if err != nil {
		t.Fatal(err)
	}
	if string(b[:12]) != "replica data" {
		t.Errorf("data lost: %q", b[:12])
	}
}

// factory builds in-place engines for the shared suite. The engine cannot
// abort a write set or recover alone, so Atomic is false and there is no
// Crash hook: the suite's visibility, isolation and read-only cases and its
// parallel disjoint-key case (trace audited for store-without-intent) run;
// the abort and crash cases need rollback, which in-place delegates to
// neighbour replicas.
func factory(mode nvm.Mode) enginetest.Factory {
	return enginetest.Factory{
		Name:   "inplace",
		Atomic: false,
		New: func(t testing.TB) *enginetest.Instance {
			e, _, _ := newEngineMode(t, mode)
			return &enginetest.Instance{Engine: e}
		},
	}
}

func TestConformance(t *testing.T) { enginetest.Run(t, factory(nvm.ModeStrict)) }

func BenchmarkTx1(b *testing.B) { enginetest.BenchTx1(b, factory(nvm.ModeFast)) }

func TestAbortUnsupported(t *testing.T) {
	e, _, _ := newEngine(t)
	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	obj, err := tx.Alloc(32)
	if err != nil {
		t.Fatal(err)
	}
	_ = obj
	if err := tx.Abort(); err != inplace.ErrAbortUnsupported {
		t.Errorf("Abort = %v, want ErrAbortUnsupported", err)
	}
}

// A crash mid-transaction must surface pending recovery, block Begin, and
// resolve via fetched neighbour images.
func TestPendingRecoveryResolution(t *testing.T) {
	e, heapReg, logReg := newEngine(t)
	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	obj, err := tx.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(obj, 0, []byte("committed")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Second transaction crashes mid-flight with a durable torn write.
	tx2, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.Add(obj); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Write(obj, 0, []byte("torn.....")); err != nil {
		t.Fatal(err)
	}
	if err := heapReg.Persist(int(obj), 9); err != nil {
		t.Fatal(err)
	}
	if err := heapReg.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := logReg.Crash(); err != nil {
		t.Fatal(err)
	}

	e2, err := inplace.Open(heapReg, logReg)
	if err != nil {
		t.Fatal(err)
	}
	pend := e2.PendingRecovery()
	if len(pend) != 1 || len(pend[0].Objs) != 1 || pend[0].Objs[0].Obj != obj {
		t.Fatalf("pending = %+v", pend)
	}
	if _, err := e2.Begin(); err == nil {
		t.Fatal("Begin allowed with unresolved pending recovery")
	}

	// "Neighbour" serves the pre-transaction image (roll back from
	// successor): block with header saying allocated and payload
	// "committed".
	neighbour := make([]byte, heap.BlockHeaderSize+64)
	// class
	neighbour[0] = 64
	neighbour[4] = 1 // allocated
	copy(neighbour[heap.BlockHeaderSize:], "committed")
	if err := e2.ResolvePending(func(o heap.ObjID, class int) ([]byte, error) {
		if o != obj || class != 64 {
			t.Errorf("fetch(%d, %d)", o, class)
		}
		return neighbour, nil
	}); err != nil {
		t.Fatal(err)
	}
	b, err := e2.Heap().Bytes(obj)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b, []byte("committed")) {
		t.Errorf("after resolution: %q", b[:9])
	}
	// Engine usable again.
	tx3, err := e2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
}

// A committed block reads back whole — header and payload — through the
// heap region, which is how a chain neighbour serves a recovery fetch.
func TestReadBlockRoundTrip(t *testing.T) {
	e, _, _ := newEngine(t)
	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	obj, err := tx.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(obj, 0, []byte("block image")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	img, err := e.Heap().Region().ReadSlice(int(obj)-heap.BlockHeaderSize, heap.BlockHeaderSize+64)
	if err != nil {
		t.Fatal(err)
	}
	if len(img) != heap.BlockHeaderSize+64 {
		t.Fatalf("image size %d", len(img))
	}
	if string(img[heap.BlockHeaderSize:heap.BlockHeaderSize+11]) != "block image" {
		t.Errorf("image payload wrong")
	}
}
