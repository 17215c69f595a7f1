package kamino_test

// Crash-point enumeration: instead of sampling crashes between API calls,
// power-fail a small transaction at EVERY fence it issues — on the client
// path and in the backup applier alike — with every class of outcome for
// the lines that fence left in doubt (none survive, all survive, each one
// alone), recover, and check the result against a model. At every fence
// the process is also killed: what a killed fast-mode process leaves in
// its mapped files is its whole volatile view, written-but-unflushed
// lines included.

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"kaminotx/internal/heap"
	"kaminotx/internal/kvstore"
	"kaminotx/internal/nvm"
	"kaminotx/kamino"
)

// crashCase prepares a fresh pool and returns the operation to power-fail
// and the check a recovered pool must pass. acked tells the check whether
// the operation had returned when the power failed: then its effects must
// be there; otherwise all of them or none.
type crashCase func(t *testing.T, pool *kamino.Pool) (op func() error, check func(pool *kamino.Pool, acked bool) error)

// powerFail names one crash point: the fence to fail at, counted from 1
// over all of the pool's regions from the start of the operation (0: never
// fail), and which in-doubt lines survive — or, with kill, that every
// region's volatile view survives whole.
type powerFail struct {
	fence int
	keep  func(region, line int) bool
	kill  bool
}

func (pf powerFail) String() string {
	if pf.kill {
		return fmt.Sprintf("kill at fence %d", pf.fence)
	}
	return fmt.Sprintf("fence %d", pf.fence)
}

// cloneRegion copies a region's volatile view — after a power failure, its
// durable image — into a fresh strict region, fully durable.
func cloneRegion(t *testing.T, r *nvm.Region) *nvm.Region {
	t.Helper()
	c, err := nvm.New(r.Size(), nvm.Options{Mode: nvm.ModeStrict})
	if err != nil {
		t.Fatal(err)
	}
	img, err := r.ReadSlice(0, r.Size())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(0, img); err != nil {
		t.Fatal(err)
	}
	if err := c.Persist(0, r.Size()); err != nil {
		t.Fatal(err)
	}
	return c
}

// runCrashPoint builds one instance, runs the operation and power-fails
// every region when the operation reaches pf.fence, then recovers from the
// failed images and runs the case's check. It returns how many fences the
// operation issued and which (region, line) pairs the failed fence had left
// in doubt.
//
// The power failure happens inside the fence hook: the regions are failed in
// place and their images copied out, and the run then carries on over the
// wreckage so that its goroutines (the backup applier among them) wind down
// normally. Whatever it does after that point is discarded with the pool.
func runCrashPoint(t *testing.T, opts kamino.Options, c crashCase, pf powerFail) (fences int, inDoubt [][2]int) {
	t.Helper()
	pool, err := kamino.Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	op, check := c(t, pool)
	pool.Drain()
	regs := pool.Regions()
	var (
		n, acked  atomic.Int32
		failed    []*nvm.Region
		wasAcked  bool
		cloneFail error
	)
	hook := func() {
		if int(n.Add(1)) != pf.fence {
			return
		}
		wasAcked = acked.Load() == 1
		for ri, r := range regs {
			if pf.kill {
				failed = append(failed, cloneRegion(t, r))
				continue
			}
			err := r.CrashPartial(func(line int) bool {
				inDoubt = append(inDoubt, [2]int{ri, line})
				return pf.keep(ri, line)
			})
			if err != nil {
				cloneFail = err
				return
			}
			failed = append(failed, cloneRegion(t, r))
		}
	}
	for _, r := range regs {
		r.SetFenceHook(hook)
	}
	opErr := op()
	acked.Store(1)
	pool.Drain() // orders the applier's hook writes before the reads below
	for _, r := range regs {
		r.SetFenceHook(nil)
	}
	if cloneFail != nil {
		t.Fatalf("%v: %v", pf, cloneFail)
	}
	if failed == nil {
		// The operation ran to completion: everything it did is fenced,
		// so even the harshest power failure must keep all of it.
		if opErr != nil {
			t.Fatalf("%v: operation failed: %v", pf, opErr)
		}
		for _, r := range regs {
			if err := r.Crash(); err != nil {
				t.Fatal(err)
			}
			failed = append(failed, cloneRegion(t, r))
		}
		wasAcked = true
	}
	_ = pool.Close() // may report the wreckage; nothing to learn from it
	recovered, err := kamino.Reattach(opts, failed)
	if err != nil {
		t.Fatalf("%v, in doubt %v: recovery failed: %v", pf, inDoubt, err)
	}
	defer recovered.Close()
	if err := check(recovered, wasAcked); err != nil {
		t.Fatalf("%v (acked=%v), in doubt %v: %v", pf, wasAcked, inDoubt, err)
	}
	return int(n.Load()), inDoubt
}

// enumerateCrashPoints runs c once per crash point and outcome class and
// returns how many kill points it ran (one per fence). With pairs set, every two in-doubt lines of a fence also survive together
// without the rest — the outcome that tore undo's log entry from the data
// it points at when both shared one fence (the slot header and entry
// durable, the copied old value not: a rollback from garbage).
func enumerateCrashPoints(t *testing.T, opts kamino.Options, c crashCase, pairs bool) (kills int) {
	t.Helper()
	total, _ := runCrashPoint(t, opts, c, powerFail{})
	if total == 0 {
		t.Fatal("operation issued no fence")
	}
	points := 0
	for k := 1; k <= total; k++ {
		runCrashPoint(t, opts, c, powerFail{fence: k, kill: true})
		kills++
		_, inDoubt := runCrashPoint(t, opts, c, powerFail{fence: k, keep: func(int, int) bool { return false }})
		runCrashPoint(t, opts, c, powerFail{fence: k, keep: func(int, int) bool { return true }})
		for _, only := range inDoubt {
			runCrashPoint(t, opts, c, powerFail{fence: k, keep: func(r, l int) bool { return [2]int{r, l} == only }})
		}
		points += 2 + len(inDoubt)
		if !pairs {
			continue
		}
		for i, a := range inDoubt {
			for _, b := range inDoubt[i+1:] {
				runCrashPoint(t, opts, c, powerFail{fence: k, keep: func(r, l int) bool {
					return [2]int{r, l} == a || [2]int{r, l} == b
				}})
				points++
			}
		}
	}
	t.Logf("%d fences, %d crash points, %d kill points", total, points, kills)
	return kills
}

func crashOpts(mode kamino.Mode) kamino.Options {
	return kamino.Options{
		Mode: mode, Strict: true, HeapSize: 256 << 10, Alpha: 0.5,
		LogSlots: 4, LogEntriesPerSlot: 16, LogDataBytesPerSlot: 8 << 10, ApplierWorkers: 1,
	}
}

// oneObjectTx is the engine-level case: one transaction overwrites one
// committed object in place.
func oneObjectTx(mode kamino.Mode) crashCase {
	const size = 200
	before, after := bytes.Repeat([]byte{0xA5}, size), bytes.Repeat([]byte{0x5A}, size)
	return func(t *testing.T, pool *kamino.Pool) (func() error, func(*kamino.Pool, bool) error) {
		var obj kamino.ObjID
		err := pool.Update(func(tx *kamino.Tx) error {
			var err error
			if obj, err = tx.Alloc(size); err != nil {
				return err
			}
			return tx.Write(obj, 0, before)
		})
		if err != nil {
			t.Fatal(err)
		}
		var oldBlock []byte // what a chain neighbour would serve an in-place replica
		if ie := pool.InPlaceEngine(); ie != nil {
			b, err := ie.Heap().Region().ReadSlice(int(obj)-heap.BlockHeaderSize, heap.BlockHeaderSize+heap.ClassForSize(size))
			if err != nil {
				t.Fatal(err)
			}
			oldBlock = bytes.Clone(b)
		}
		op := func() error {
			return pool.Update(func(tx *kamino.Tx) error {
				if err := tx.Add(obj); err != nil {
					return err
				}
				return tx.Write(obj, 0, after)
			})
		}
		read := func(pool *kamino.Pool) ([]byte, error) {
			b, err := pool.Engine().Heap().Bytes(obj)
			if err != nil {
				return nil, err
			}
			return append([]byte(nil), b[:size]...), nil
		}
		check := func(pool *kamino.Pool, acked bool) error {
			if ie := pool.InPlaceEngine(); ie != nil && len(ie.PendingRecovery()) > 0 {
				// An in-place replica cannot finish recovery alone; its
				// successor's copy rolls the transaction back.
				if acked {
					return errors.New("acknowledged transaction is pending chain recovery")
				}
				err := ie.ResolvePending(func(heap.ObjID, int) ([]byte, error) {
					return append([]byte(nil), oldBlock...), nil
				})
				if err != nil {
					return err
				}
				if got, err := read(pool); err != nil || !bytes.Equal(got, before) {
					return fmt.Errorf("rolled back from the neighbour, object is not the old value (%v)", err)
				}
				return nil
			}
			got, err := read(pool)
			if err != nil {
				return err
			}
			switch {
			case bytes.Equal(got, after):
			case acked:
				return errors.New("acknowledged write lost")
			case mode == kamino.ModeNoLog:
				// No atomicity by design: lines of both values may mix.
				for _, b := range got {
					if b != before[0] && b != after[0] {
						return fmt.Errorf("byte %#x belongs to neither value", b)
					}
				}
				return nil
			case !bytes.Equal(got, before):
				return errors.New("object is neither the old nor the new value")
			}
			if mode == kamino.ModeNoLog || mode == kamino.ModeInPlace {
				return nil // cannot abort
			}
			// The copy an abort restores from (backup, undo log) must agree
			// with what recovery settled on.
			errAbort := errors.New("abort")
			err = pool.Update(func(tx *kamino.Tx) error {
				if err := tx.Add(obj); err != nil {
					return err
				}
				if err := tx.Write(obj, 0, bytes.Repeat([]byte{0xEE}, size)); err != nil {
					return err
				}
				return errAbort
			})
			if !errors.Is(err, errAbort) {
				return fmt.Errorf("abort probe: %v", err)
			}
			if again, err := read(pool); err != nil || !bytes.Equal(again, got) {
				return fmt.Errorf("abort after recovery restored a different value (%v)", err)
			}
			return nil
		}
		return op, check
	}
}

// TestCrashPointsOneObjectTx also power-fails every pair of in-doubt lines:
// the transaction is small enough to afford it. Its kill points are pinned:
// one per fence the transaction and its backup sync issue.
func TestCrashPointsOneObjectTx(t *testing.T) {
	kills := map[kamino.Mode]int{kamino.ModeSimple: 5, kamino.ModeDynamic: 10, kamino.ModeUndo: 5, kamino.ModeInPlace: 4, kamino.ModeNoLog: 1}
	for _, mode := range []kamino.Mode{kamino.ModeSimple, kamino.ModeDynamic, kamino.ModeUndo, kamino.ModeInPlace, kamino.ModeNoLog} {
		t.Run(string(mode), func(t *testing.T) {
			if n := enumerateCrashPoints(t, crashOpts(mode), oneObjectTx(mode), true); n != kills[mode] {
				t.Errorf("%d kill points, want %d", n, kills[mode])
			}
		})
	}
}

// leafPut is the tree-level case: one put into a small store preloaded with
// the given keys, checked against a map model and the tree's invariants.
func leafPut(preload []uint64, key uint64, val []byte) crashCase {
	return func(t *testing.T, pool *kamino.Pool) (func() error, func(*kamino.Pool, bool) error) {
		store, err := kvstore.Create(pool, 8)
		if err != nil {
			t.Fatal(err)
		}
		before := map[uint64][]byte{}
		for _, k := range preload {
			before[k] = bytes.Repeat([]byte{byte(k)}, 40)
			if err := store.Insert(k, before[k]); err != nil {
				t.Fatal(err)
			}
		}
		after := map[uint64][]byte{key: val}
		for k, v := range before {
			if k != key {
				after[k] = v
			}
		}
		matches := func(store *kvstore.Store, model map[uint64][]byte) (bool, error) {
			if n, err := store.Count(); err != nil || n != len(model) {
				return false, err
			}
			for k, want := range model {
				got, ok, err := store.Read(k)
				if err != nil || !ok || !bytes.Equal(got, want) {
					return false, err
				}
			}
			return true, nil
		}
		check := func(pool *kamino.Pool, acked bool) error {
			store, err := kvstore.Open(pool)
			if err != nil {
				return err
			}
			if err := store.Tree().CheckInvariants(); err != nil {
				return err
			}
			if ok, err := matches(store, after); err != nil || ok {
				return err
			}
			if acked {
				return errors.New("acknowledged put lost")
			}
			if ok, err := matches(store, before); err != nil || !ok {
				return fmt.Errorf("store matches neither the old nor the new model (%v)", err)
			}
			return nil
		}
		return func() error { return store.Update(key, val) }, check
	}
}

// TestCrashPointsLeafPut covers pbtree.putInLeaf's three paths: a value
// overwritten in place (the leaf is not even in the write set), a value that
// outgrew its object (alloc, free, leaf repointed), and a new key — in the
// middle of a leaf, and at the end of a full-but-one leaf (order 8, seven
// keys), where the leaf store is three of its lines and none of the rest.
func TestCrashPointsLeafPut(t *testing.T) {
	few, fullButOne := []uint64{10, 20, 30}, []uint64{10, 20, 30, 40, 50, 60, 70}
	paths := []struct {
		name    string
		preload []uint64
		key     uint64
		val     []byte
	}{
		{"in-place", few, 20, bytes.Repeat([]byte{0xC3}, 40)},
		{"replace", few, 20, bytes.Repeat([]byte{0xC3}, 300)},
		{"insert", few, 25, bytes.Repeat([]byte{0xC3}, 40)},
		{"insert-end", fullButOne, 80, bytes.Repeat([]byte{0xC3}, 40)},
	}
	for _, mode := range []kamino.Mode{kamino.ModeSimple, kamino.ModeUndo} {
		for _, p := range paths {
			t.Run(fmt.Sprintf("%s/%s", mode, p.name), func(t *testing.T) {
				enumerateCrashPoints(t, crashOpts(mode), leafPut(p.preload, p.key, p.val), false)
			})
		}
	}
}
