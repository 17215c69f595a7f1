// Package enginetest is a conformance suite run against every transaction
// engine (kamino simple/dynamic, undo, cow, nolog, inplace). The same behavioural
// contract — visibility, isolation, atomicity under abort and under crash —
// is what lets the paper's benchmarks compare mechanisms on identical
// application code.
package enginetest

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"kaminotx/internal/engine"
	"kaminotx/internal/heap"
	"kaminotx/internal/trace"
)

// Instance is one engine under test plus its crash-restart hook.
type Instance struct {
	Engine engine.Engine

	// Crash simulates a power failure on all of the engine's regions and
	// reopens the engine over them (running recovery). The previous
	// Engine must not be used afterwards. Nil when the engine cannot
	// recover (nolog baseline).
	//
	// Crash must only be called when no transaction is executing and
	// Drain has been called, unless the test intends a mid-transaction
	// power cut (in which case the transaction goroutine must have
	// stopped issuing operations).
	Crash func() (engine.Engine, error)
}

// Factory creates fresh engine instances for the suite.
type Factory struct {
	Name string
	// Atomic is false for the nolog baseline and the in-place replica
	// engine: abort/crash tests that require rollback are skipped.
	Atomic bool
	New    func(t testing.TB) *Instance
}

// Run executes the conformance suite against the factory.
func Run(t *testing.T, f Factory) {
	t.Run("CommitVisible", func(t *testing.T) { testCommitVisible(t, f) })
	t.Run("ReadYourWrites", func(t *testing.T) { testReadYourWrites(t, f) })
	t.Run("WriteWithoutAdd", func(t *testing.T) { testWriteWithoutAdd(t, f) })
	t.Run("TxSpentAfterFinish", func(t *testing.T) { testTxSpent(t, f) })
	t.Run("AllocCommit", func(t *testing.T) { testAllocCommit(t, f) })
	t.Run("FreeCommitReusesBlock", func(t *testing.T) { testFreeCommit(t, f) })
	t.Run("Isolation", func(t *testing.T) { testIsolation(t, f) })
	t.Run("ReadOnlyLeavesNoMark", func(t *testing.T) { testReadOnlyLeavesNoMark(t, f) })
	t.Run("BareLock", func(t *testing.T) { testBareLock(t, f) })
	if f.Atomic {
		t.Run("AbortRestores", func(t *testing.T) { testAbortRestores(t, f) })
		t.Run("AbortUnwindsAlloc", func(t *testing.T) { testAbortUnwindsAlloc(t, f) })
		t.Run("AbortKeepsFreedObject", func(t *testing.T) { testAbortKeepsFreed(t, f) })
		t.Run("AddAfterFreeThenAbort", func(t *testing.T) { testAddAfterFree(t, f) })
	}
	if f.Atomic && f.New(t).Crash != nil {
		t.Run("CommitDurableAcrossCrash", func(t *testing.T) { testCommitDurable(t, f) })
		t.Run("CrashMidTxRollsBack", func(t *testing.T) { testCrashMidTx(t, f) })
		t.Run("CrashMidTxAllocRollsBack", func(t *testing.T) { testCrashMidAlloc(t, f) })
		t.Run("PropertyCrashAtomicity", func(t *testing.T) { testPropertyCrashAtomicity(t, f) })
	}
	runConcurrency(t, f)
}

// mustAlloc creates and commits an object with the given contents,
// returning its id.
func mustAlloc(t *testing.T, e engine.Engine, data []byte) heap.ObjID {
	t.Helper()
	tx, err := e.Begin()
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	obj, err := tx.Alloc(len(data))
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if err := tx.Write(obj, 0, data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	return obj
}

func readObj(t *testing.T, e engine.Engine, obj heap.ObjID, n int) []byte {
	t.Helper()
	tx, err := e.Begin()
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	b, err := tx.Read(obj)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	out := append([]byte(nil), b[:n]...)
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	return out
}

// deviceCounts sums, over every NVM region of the engine, the registry's
// nvm.<region>.<field> gauges for each of the given fields.
func deviceCounts(e engine.Engine, fields ...string) map[string]uint64 {
	sums := make(map[string]uint64, len(fields))
	for name, v := range e.Obs().Snapshot().Gauges {
		for _, field := range fields {
			if strings.HasPrefix(name, "nvm.") && strings.HasSuffix(name, "."+field) {
				sums[field] += v
			}
		}
	}
	return sums
}

// testReadOnlyLeavesNoMark: a transaction with an empty write set finishes
// — by Commit, or by Abort as Pool.View ends it — without a store, a flush
// or a fence on any region and without a trace event.
func testReadOnlyLeavesNoMark(t *testing.T, f Factory) {
	inst := f.New(t)
	defer inst.Engine.Close()
	e := inst.Engine
	obj := mustAlloc(t, e, []byte("settled"))
	e.Drain()
	rec := trace.NewRecorder(1 << 8)
	e.SetTracer(rec.Tracer(e.Name() + "#ro"))

	before := deviceCounts(e, "fences", "lines_flushed", "bytes_written")
	for _, finish := range []func(engine.Tx) error{engine.Tx.Commit, engine.Tx.Abort} {
		tx, err := e.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Read(obj); err != nil {
			t.Fatal(err)
		}
		if err := finish(tx); err != nil {
			t.Fatal(err)
		}
	}
	after := deviceCounts(e, "fences", "lines_flushed", "bytes_written")
	for field, was := range before {
		if after[field] != was {
			t.Errorf("read-only transactions moved nvm.*.%s from %d to %d", field, was, after[field])
		}
	}
	if n := rec.Total(); n != 0 {
		t.Errorf("read-only transactions emitted %d trace events", n)
	}
}

// testBareLock covers Lock, the write lock without a write intent: it
// leaves no mark on any device or the trace and refuses Write; Add upgrades
// it; Commit and Abort release it exactly once; and it serializes
// transactions that read an object before declaring it — the walk a hash
// bucket's writers make, which deadlocks on the read-to-write upgrade when
// nothing orders them.
func testBareLock(t *testing.T, f Factory) {
	inst := f.New(t)
	defer inst.Engine.Close()
	e := inst.Engine
	guard := mustAlloc(t, e, []byte("guard"))
	obj := mustAlloc(t, e, make([]byte, 8))
	e.Drain()
	begin := func() engine.Tx {
		t.Helper()
		tx, err := e.Begin()
		if err != nil {
			t.Fatal(err)
		}
		return tx
	}

	rec := trace.NewRecorder(1 << 8)
	e.SetTracer(rec.Tracer(e.Name() + "#lock"))
	before := deviceCounts(e, "fences", "lines_flushed", "bytes_written")
	for _, finish := range []func(engine.Tx) error{engine.Tx.Commit, engine.Tx.Abort} {
		tx := begin()
		if err := tx.Lock(guard); err != nil {
			t.Fatal(err)
		}
		if err := tx.Lock(guard); err != nil {
			t.Fatalf("second Lock: %v", err)
		}
		if _, err := tx.Read(guard); err != nil {
			t.Fatal(err)
		}
		if err := tx.Write(guard, 0, []byte("G")); err == nil {
			t.Error("Write to a bare-locked object did not error")
		}
		if err := finish(tx); err != nil {
			t.Fatal(err)
		}
		if err := tx.Lock(guard); err == nil {
			t.Error("Lock on a spent transaction did not error")
		}
	}
	for field, was := range before {
		if now := deviceCounts(e, field)[field]; now != was {
			t.Errorf("bare-lock transactions moved nvm.*.%s from %d to %d", field, was, now)
		}
	}
	if n := rec.Total(); n != 0 {
		t.Errorf("bare-lock transactions emitted %d trace events", n)
	}
	e.SetTracer(nil)

	// Both finishes released the lock: an upgrade takes it again at once,
	// writes through it, and releases it once (a second release panics).
	tx := begin()
	if err := tx.Lock(guard); err != nil {
		t.Fatal(err)
	}
	if err := tx.Add(guard); err != nil {
		t.Fatalf("Add after Lock: %v", err)
	}
	if err := tx.Lock(guard); err != nil {
		t.Fatalf("Lock after Add: %v", err)
	}
	if err := tx.Write(guard, 0, []byte("G")); err != nil {
		t.Fatalf("Write after upgrade: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	if got := readObj(t, e, guard, 5); string(got) != "Guard" {
		t.Errorf("after upgraded write: %q", got)
	}

	// Read, then declare, under the guard: no deadlock, no lost update.
	const writers, perWriter = 3, 50
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func() {
			for i := 0; i < perWriter; i++ {
				tx, err := e.Begin()
				if err != nil {
					errs <- err
					return
				}
				if err := tx.Lock(guard); err != nil {
					errs <- err
					return
				}
				b, err := tx.Read(obj)
				if err != nil {
					errs <- err
					return
				}
				v := b[0] + 1
				if err := tx.Add(obj); err != nil {
					errs <- err
					return
				}
				if err := tx.Write(obj, 0, []byte{v}); err != nil {
					errs <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < writers; w++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("writers under a bare lock deadlocked")
		}
	}
	e.Drain()
	if got := readObj(t, e, obj, 1); got[0] != writers*perWriter {
		t.Errorf("counter = %d, want %d (lost updates)", got[0], writers*perWriter)
	}
}

func testCommitVisible(t *testing.T, f Factory) {
	inst := f.New(t)
	defer inst.Engine.Close()
	obj := mustAlloc(t, inst.Engine, []byte("hello"))

	tx, err := inst.Engine.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Add(obj); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(obj, 0, []byte("world")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := readObj(t, inst.Engine, obj, 5); string(got) != "world" {
		t.Errorf("after commit = %q, want world", got)
	}
}

func testReadYourWrites(t *testing.T, f Factory) {
	inst := f.New(t)
	defer inst.Engine.Close()
	obj := mustAlloc(t, inst.Engine, []byte("aaaa"))

	tx, err := inst.Engine.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Add(obj); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(obj, 0, []byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	b, err := tx.Read(obj)
	if err != nil {
		t.Fatal(err)
	}
	if string(b[:4]) != "bbbb" {
		t.Errorf("read-your-writes = %q, want bbbb", b[:4])
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func testWriteWithoutAdd(t *testing.T, f Factory) {
	inst := f.New(t)
	defer inst.Engine.Close()
	obj := mustAlloc(t, inst.Engine, []byte("x"))

	tx, err := inst.Engine.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(obj, 0, []byte("y")); err == nil {
		t.Error("Write without Add did not error")
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
}

// testTxSpent keeps two finished transactions — one committed with a write,
// one aborted after a read — while later transactions run on the state the
// engine recycled from them: the kept ones answer ErrTxDone from every
// operation, before and after.
func testTxSpent(t *testing.T, f Factory) {
	inst := f.New(t)
	defer inst.Engine.Close()
	obj := mustAlloc(t, inst.Engine, []byte("x"))
	other := mustAlloc(t, inst.Engine, []byte("y"))

	wrote, err := inst.Engine.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := wrote.Add(obj); err != nil {
		t.Fatal(err)
	}
	if err := wrote.Write(obj, 0, []byte("z")); err != nil {
		t.Fatal(err)
	}
	if err := wrote.Commit(); err != nil {
		t.Fatal(err)
	}
	read, err := inst.Engine.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := read.Read(obj); err != nil {
		t.Fatal(err)
	}
	if err := read.Abort(); err != nil {
		t.Fatal(err)
	}
	checkSpent := func(when string) {
		t.Helper()
		for name, tx := range map[string]engine.Tx{"committed": wrote, "aborted": read} {
			_, readErr := tx.Read(other)
			_, allocErr := tx.Alloc(8)
			for op, err := range map[string]error{
				"Add": tx.Add(other), "Lock": tx.Lock(other), "Write": tx.Write(other, 0, []byte("!")),
				"Read": readErr, "Alloc": allocErr, "Free": tx.Free(other),
				"Commit": tx.Commit(), "Abort": tx.Abort(),
			} {
				if err != engine.ErrTxDone {
					t.Errorf("%s: %s on the %s tx = %v, want ErrTxDone", when, op, name, err)
				}
			}
		}
	}
	checkSpent("at once")
	for i := 0; i < 8; i++ {
		tx, err := inst.Engine.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Add(other); err != nil {
			t.Fatal(err)
		}
		if err := tx.Write(other, 0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			inst.Engine.Drain()
		}
	}
	inst.Engine.Drain()
	checkSpent("after later transactions")
	if got := readObj(t, inst.Engine, other, 1); got[0] != 7 {
		t.Errorf("object the spent transactions were pointed at holds %d, want 7", got[0])
	}
}

func testAllocCommit(t *testing.T, f Factory) {
	inst := f.New(t)
	defer inst.Engine.Close()
	obj := mustAlloc(t, inst.Engine, []byte("fresh"))
	ok, err := inst.Engine.Heap().IsAllocated(obj)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("committed alloc not allocated")
	}
	if got := readObj(t, inst.Engine, obj, 5); string(got) != "fresh" {
		t.Errorf("alloc contents = %q", got)
	}
}

func testFreeCommit(t *testing.T, f Factory) {
	inst := f.New(t)
	defer inst.Engine.Close()
	obj := mustAlloc(t, inst.Engine, make([]byte, 64))

	tx, err := inst.Engine.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Free(obj); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	inst.Engine.Drain()
	ok, err := inst.Engine.Heap().IsAllocated(obj)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("freed object still allocated after commit")
	}
	// The block must be reusable.
	obj2 := mustAlloc(t, inst.Engine, make([]byte, 64))
	if obj2 != obj {
		t.Errorf("freed block not reused: got %d, want %d", obj2, obj)
	}
}

func testAbortRestores(t *testing.T, f Factory) {
	inst := f.New(t)
	defer inst.Engine.Close()
	obj := mustAlloc(t, inst.Engine, []byte("original"))

	tx, err := inst.Engine.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Add(obj); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(obj, 0, []byte("garbage!")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := readObj(t, inst.Engine, obj, 8); string(got) != "original" {
		t.Errorf("after abort = %q, want original", got)
	}
}

func testAbortUnwindsAlloc(t *testing.T, f Factory) {
	inst := f.New(t)
	defer inst.Engine.Close()

	tx, err := inst.Engine.Begin()
	if err != nil {
		t.Fatal(err)
	}
	obj, err := tx.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(obj, 0, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	ok, err := inst.Engine.Heap().IsAllocated(obj)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("aborted alloc still allocated")
	}
	// Block must be reusable.
	obj2 := mustAlloc(t, inst.Engine, make([]byte, 64))
	if obj2 != obj {
		t.Errorf("aborted-alloc block not reused: got %d, want %d", obj2, obj)
	}
}

func testAbortKeepsFreed(t *testing.T, f Factory) {
	inst := f.New(t)
	defer inst.Engine.Close()
	obj := mustAlloc(t, inst.Engine, []byte("survivor"))

	tx, err := inst.Engine.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Free(obj); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	ok, err := inst.Engine.Heap().IsAllocated(obj)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("aborted free deallocated the object")
	}
	if got := readObj(t, inst.Engine, obj, 8); string(got) != "survivor" {
		t.Errorf("after aborted free = %q", got)
	}
}

func testAddAfterFree(t *testing.T, f Factory) {
	inst := f.New(t)
	defer inst.Engine.Close()
	obj := mustAlloc(t, inst.Engine, []byte("keep-me!"))

	// Free then Add then Write, then abort: the object must come back
	// with its original contents (regression test for the lock-only
	// write-set upgrade path).
	tx, err := inst.Engine.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Free(obj); err != nil {
		t.Fatal(err)
	}
	if err := tx.Add(obj); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(obj, 0, []byte("clobber!")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := readObj(t, inst.Engine, obj, 8); string(got) != "keep-me!" {
		t.Errorf("after abort = %q, want keep-me!", got)
	}
}

func testIsolation(t *testing.T, f Factory) {
	inst := f.New(t)
	defer inst.Engine.Close()
	obj := mustAlloc(t, inst.Engine, make([]byte, 8))

	// Two writers increment a counter 100 times each; locks must
	// serialize them so no update is lost.
	const perWriter = 100
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		go func() {
			for i := 0; i < perWriter; i++ {
				tx, err := inst.Engine.Begin()
				if err != nil {
					errs <- err
					return
				}
				if err := tx.Add(obj); err != nil {
					errs <- err
					return
				}
				b, err := tx.Read(obj)
				if err != nil {
					errs <- err
					return
				}
				v := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24
				v++
				if err := tx.Write(obj, 0, []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}); err != nil {
					errs <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < 2; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	inst.Engine.Drain()
	got := readObj(t, inst.Engine, obj, 4)
	v := uint64(got[0]) | uint64(got[1])<<8 | uint64(got[2])<<16 | uint64(got[3])<<24
	if v != 2*perWriter {
		t.Errorf("counter = %d, want %d (lost updates)", v, 2*perWriter)
	}
}

func testCommitDurable(t *testing.T, f Factory) {
	inst := f.New(t)
	obj := mustAlloc(t, inst.Engine, []byte("durable?"))

	tx, err := inst.Engine.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Add(obj); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(obj, 0, []byte("durable!")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	inst.Engine.Drain()
	e2, err := inst.Crash()
	if err != nil {
		t.Fatalf("crash-reopen: %v", err)
	}
	defer e2.Close()
	if got := readObj(t, e2, obj, 8); string(got) != "durable!" {
		t.Errorf("after crash = %q, want durable!", got)
	}
}

func testCrashMidTx(t *testing.T, f Factory) {
	inst := f.New(t)
	obj := mustAlloc(t, inst.Engine, []byte("stable00"))
	inst.Engine.Drain()

	tx, err := inst.Engine.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Add(obj); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(obj, 0, []byte("torn....")); err != nil {
		t.Fatal(err)
	}
	// Flush the torn write so it is durable — the worst case for
	// recovery — then power-fail without committing.
	reg := inst.Engine.Heap().Region()
	if err := reg.Persist(int(obj), 8); err != nil {
		t.Fatal(err)
	}
	e2, err := inst.Crash()
	if err != nil {
		t.Fatalf("crash-reopen: %v", err)
	}
	defer e2.Close()
	if got := readObj(t, e2, obj, 8); string(got) != "stable00" {
		t.Errorf("after mid-tx crash = %q, want stable00", got)
	}
}

func testCrashMidAlloc(t *testing.T, f Factory) {
	inst := f.New(t)
	base := mustAlloc(t, inst.Engine, make([]byte, 64)) // anchor object
	inst.Engine.Drain()

	tx, err := inst.Engine.Begin()
	if err != nil {
		t.Fatal(err)
	}
	obj, err := tx.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	_ = obj
	e2, err := inst.Crash()
	if err != nil {
		t.Fatalf("crash-reopen: %v", err)
	}
	defer e2.Close()
	ok, err := e2.Heap().IsAllocated(obj)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("alloc from crashed tx still allocated after recovery")
	}
	if ok, _ := e2.Heap().IsAllocated(base); !ok {
		t.Error("unrelated object lost")
	}
}

// testPropertyCrashAtomicity runs random transactions, crashes at a random
// point, reopens, and verifies every object holds either its pre- or
// post-transaction value — never a mixture — and that committed
// transactions are never lost.
func testPropertyCrashAtomicity(t *testing.T, f Factory) {
	const objects = 8
	const objSize = 96
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			inst := f.New(t)
			e := inst.Engine

			// Model: committed contents of each object.
			objs := make([]heap.ObjID, objects)
			model := make([][]byte, objects)
			for i := range objs {
				val := bytes.Repeat([]byte{byte(i + 1)}, objSize)
				objs[i] = mustAlloc(t, e, val)
				model[i] = val
			}

			nTx := 3 + rng.Intn(8)
			crashAfter := rng.Intn(nTx) // crash during tx #crashAfter
			for i := 0; i < nTx; i++ {
				tx, err := e.Begin()
				if err != nil {
					t.Fatal(err)
				}
				// Touch 1-3 distinct objects.
				touched := rng.Perm(objects)[:1+rng.Intn(3)]
				staged := make(map[int][]byte)
				for _, oi := range touched {
					if err := tx.Add(objs[oi]); err != nil {
						t.Fatal(err)
					}
					val := make([]byte, objSize)
					rng.Read(val)
					if err := tx.Write(objs[oi], 0, val); err != nil {
						t.Fatal(err)
					}
					staged[oi] = val
				}
				if i == crashAfter {
					// Power fails before commit.
					break
				}
				switch rng.Intn(3) {
				case 0:
					if err := tx.Abort(); err != nil {
						t.Fatal(err)
					}
				default:
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
					for oi, val := range staged {
						model[oi] = val
					}
				}
			}
			e.Drain()
			e2, err := inst.Crash()
			if err != nil {
				t.Fatalf("crash-reopen: %v", err)
			}
			defer e2.Close()
			for i, obj := range objs {
				got := readObj(t, e2, obj, objSize)
				if !bytes.Equal(got, model[i]) {
					t.Errorf("object %d diverged after crash recovery", i)
				}
			}
		})
	}
}
