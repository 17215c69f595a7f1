package kamino

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"
)

func allModes() []Mode {
	return []Mode{ModeSimple, ModeDynamic, ModeUndo, ModeCoW, ModeNoLog}
}

func atomicModes() []Mode {
	return []Mode{ModeSimple, ModeDynamic, ModeUndo, ModeCoW}
}

func testPool(t *testing.T, mode Mode) *Pool {
	t.Helper()
	p, err := Create(Options{Mode: mode, HeapSize: 1 << 20, Strict: true})
	if err != nil {
		t.Fatalf("Create(%s): %v", mode, err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestCreateAllModes(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(string(mode), func(t *testing.T) {
			p := testPool(t, mode)
			if p.Root() == Nil {
				t.Error("root object not allocated")
			}
			if p.Mode() != mode {
				t.Errorf("Mode = %q", p.Mode())
			}
		})
	}
}

func TestCreateRejectsBadOptions(t *testing.T) {
	if _, err := Create(Options{Mode: "bogus"}); err == nil {
		t.Error("bogus mode accepted")
	}
	if _, err := Create(Options{HeapSize: 16}); err == nil {
		t.Error("tiny heap accepted")
	}
	if _, err := Create(Options{Mode: ModeDynamic, Alpha: 1.5, HeapSize: 1 << 20}); err == nil {
		t.Error("alpha > 1 accepted for dynamic mode")
	}
}

func TestUpdateCommitsAndViewReads(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(string(mode), func(t *testing.T) {
			p := testPool(t, mode)
			var obj ObjID
			err := p.Update(func(tx *Tx) error {
				var err error
				obj, err = tx.Alloc(128)
				if err != nil {
					return err
				}
				if err := tx.SetString(obj, 0, "kamino"); err != nil {
					return err
				}
				// Hook it to the root so it is reachable.
				if err := tx.Add(p.Root()); err != nil {
					return err
				}
				return tx.SetPtr(p.Root(), 0, obj)
			})
			if err != nil {
				t.Fatalf("Update: %v", err)
			}
			err = p.View(func(tx *Tx) error {
				got, err := tx.Ptr(p.Root(), 0)
				if err != nil {
					return err
				}
				if got != obj {
					return fmt.Errorf("root pointer = %d, want %d", got, obj)
				}
				s, err := tx.String(obj, 0)
				if err != nil {
					return err
				}
				if s != "kamino" {
					return fmt.Errorf("string = %q", s)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestUpdateErrorAborts(t *testing.T) {
	sentinel := errors.New("boom")
	for _, mode := range atomicModes() {
		t.Run(string(mode), func(t *testing.T) {
			p := testPool(t, mode)
			base := p.Stats().Aborts
			if err := p.Update(func(tx *Tx) error {
				if err := tx.Add(p.Root()); err != nil {
					return err
				}
				if err := tx.SetUint64(p.Root(), 0, 12345); err != nil {
					return err
				}
				return sentinel
			}); !errors.Is(err, sentinel) {
				t.Fatalf("Update error = %v, want sentinel", err)
			}
			if got := p.Stats().Aborts; got != base+1 {
				t.Errorf("aborts = %d after a failed Update, want %d", got, base+1)
			}
			var v uint64
			if err := p.View(func(tx *Tx) error {
				var err error
				v, err = tx.Uint64(p.Root(), 0)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if v != 0 {
				t.Errorf("aborted write visible: %d", v)
			}
			// A View ends by Abort but wrote nothing: it is a read, not an abort.
			if got := p.Stats().Aborts; got != base+1 {
				t.Errorf("aborts = %d after a View, want %d", got, base+1)
			}
		})
	}
}

func TestCrashRecoveryThroughPublicAPI(t *testing.T) {
	for _, mode := range atomicModes() {
		t.Run(string(mode), func(t *testing.T) {
			p := testPool(t, mode)
			if err := p.Update(func(tx *Tx) error {
				if err := tx.Add(p.Root()); err != nil {
					return err
				}
				return tx.SetUint64(p.Root(), 0, 777)
			}); err != nil {
				t.Fatal(err)
			}
			// Leave a transaction un-committed across the crash.
			tx, err := p.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Add(p.Root()); err != nil {
				t.Fatal(err)
			}
			if err := tx.SetUint64(p.Root(), 0, 666); err != nil {
				t.Fatal(err)
			}
			if err := p.Crash(); err != nil {
				t.Fatalf("Crash: %v", err)
			}
			var v uint64
			if err := p.View(func(tx *Tx) error {
				var err error
				v, err = tx.Uint64(p.Root(), 0)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if v != 777 {
				t.Errorf("after crash recovery root field = %d, want 777", v)
			}
		})
	}
}

func TestCrashRequiresStrict(t *testing.T) {
	p, err := Create(Options{HeapSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Crash(); err == nil {
		t.Error("Crash on fast-mode pool did not error")
	}
}

// TestFileBackedCloseAndOpen: a committed write survives Close and Open of
// a file-backed pool.
func TestFileBackedCloseAndOpen(t *testing.T) {
	dir := t.TempDir()
	p, err := Create(Options{Mode: ModeSimple, HeapSize: 1 << 20, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Update(func(tx *Tx) error {
		if err := tx.Add(p.Root()); err != nil {
			return err
		}
		return tx.SetString(p.Root(), 0, "on file")
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer p2.Close()
	if p2.Root() == Nil {
		t.Fatal("root lost across reopen")
	}
	var s string
	if err := p2.View(func(tx *Tx) error {
		var err error
		s, err = tx.String(p2.Root(), 0)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if s != "on file" {
		t.Errorf("reopened string = %q", s)
	}
}

func TestOpenMissingDir(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Error("Open of empty dir did not error")
	}
}

func TestTypedAccessors(t *testing.T) {
	p := testPool(t, ModeSimple)
	if err := p.Update(func(tx *Tx) error {
		r := p.Root()
		if err := tx.Add(r); err != nil {
			return err
		}
		if err := tx.SetUint64(r, 0, 0xAABBCCDD00112233); err != nil {
			return err
		}
		if err := tx.SetUint32(r, 8, 0xCAFEBABE); err != nil {
			return err
		}
		if err := tx.SetPtr(r, 16, ObjID(424242)); err != nil {
			return err
		}
		v64, err := tx.Uint64(r, 0)
		if err != nil || v64 != 0xAABBCCDD00112233 {
			return fmt.Errorf("Uint64 = %x, %v", v64, err)
		}
		v32, err := tx.Uint32(r, 8)
		if err != nil || v32 != 0xCAFEBABE {
			return fmt.Errorf("Uint32 = %x, %v", v32, err)
		}
		ptr, err := tx.Ptr(r, 16)
		if err != nil || ptr != ObjID(424242) {
			return fmt.Errorf("Ptr = %d, %v", ptr, err)
		}
		if _, err := tx.Uint64(r, 100000); err == nil {
			return fmt.Errorf("out-of-bounds Uint64 did not error")
		}
		if _, err := tx.ReadAt(r, -1, 4); err == nil {
			return fmt.Errorf("negative ReadAt did not error")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsExposed(t *testing.T) {
	p := testPool(t, ModeUndo)
	if err := p.Update(func(tx *Tx) error {
		if err := tx.Add(p.Root()); err != nil {
			return err
		}
		return tx.SetUint64(p.Root(), 0, 1)
	}); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Commits < 1 {
		t.Errorf("commits = %d", s.Commits)
	}
	if s.BytesCopiedCritical == 0 {
		t.Error("undo pool reported zero critical copies")
	}
	if p.NVMStats().LinesFlushed == 0 {
		t.Error("no device flushes recorded")
	}
}

// TestDynamicMissIsCharged: a Kamino-Tx-Dynamic backup miss copies the
// object into the backup region on the critical path, so the latency model
// charges that region too. With each fence costing 1 ms, an update of a
// cold object (no backup copy yet) takes at least the miss's extra fences ×
// 1 ms longer than the fastest of three warm updates of it. The miss's
// fences are counted after Drain, where the applier's equal share cancels.
// Lower bound only: a loaded host can only add to the cold update.
func TestDynamicMissIsCharged(t *testing.T) {
	const fence = time.Millisecond
	p, err := Create(Options{Mode: ModeDynamic, HeapSize: 1 << 20, ApplierWorkers: 1, FenceLatency: fence})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var obj ObjID
	if err := p.Update(func(tx *Tx) (err error) {
		obj, err = tx.Alloc(1024)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	p.Drain()
	backup := p.Regions()[1]
	update := func() (took time.Duration, fences uint64) {
		before := backup.Stats().Fences
		start := time.Now()
		if err := p.Update(func(tx *Tx) error {
			if err := tx.Add(obj); err != nil {
				return err
			}
			return tx.Write(obj, 0, bytes.Repeat([]byte{1}, 1024))
		}); err != nil {
			t.Fatal(err)
		}
		took = time.Since(start)
		p.Drain()
		return took, backup.Stats().Fences - before
	}
	cold, coldFences := update()
	warm, warmFences := update()
	for i := 0; i < 2; i++ {
		d, _ := update()
		warm = min(warm, d)
	}
	miss := coldFences - warmFences
	if miss == 0 {
		t.Fatalf("the cold update fenced the backup %d times, the warm one %d: no miss", coldFences, warmFences)
	}
	if want := time.Duration(miss) * fence; cold-warm < want {
		t.Errorf("cold update took %v, warm %v: the miss's %d backup fences (%v) were not charged", cold, warm, miss, want)
	}
}

// TestIntrospectionAcrossEngineSwap: Obs, Stats and Engine may be called
// from other goroutines (a metrics scrape, the chaos schedule's sampler) while Crash,
// Reload and Promote replace the engine; a reader must see the old engine
// or the new one. Meaningful under -race.
func TestIntrospectionAcrossEngineSwap(t *testing.T) {
	p, err := Create(Options{Mode: ModeInPlace, HeapSize: 1 << 20, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if p.Obs().Snapshot().Name == "" || p.Engine().Name() == "" {
				t.Error("introspection saw an unnamed engine")
				return
			}
			_ = p.Stats()
		}
	}()
	update := func() {
		t.Helper()
		if err := p.Update(func(tx *Tx) error {
			if err := tx.Add(p.Root()); err != nil {
				return err
			}
			return tx.SetUint64(p.Root(), 0, 1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		update()
		if err := p.Crash(); err != nil {
			t.Fatalf("Crash: %v", err)
		}
		update()
		p.Drain()
		if err := p.Reload(); err != nil {
			t.Fatalf("Reload: %v", err)
		}
	}
	if err := p.Promote(1); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	update()
	close(stop)
	<-done
	if got := p.Engine().Name(); got != "kamino" {
		t.Errorf("engine after promotion = %q, want kamino", got)
	}
}
