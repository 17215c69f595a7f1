package kamino

import (
	"testing"
	"time"

	"kaminotx/internal/engine"
	"kaminotx/internal/engine/enginetest"
	"kaminotx/internal/heap"
	"kaminotx/internal/intentlog"
	"kaminotx/internal/nvm"
)

const mainSize = 1 << 20

func regions(t testing.TB, backupSize int) (mainReg, backupReg, logReg *nvm.Region) {
	return regionsMode(t, backupSize, nvm.ModeStrict)
}

func regionsMode(t testing.TB, backupSize int, mode nvm.Mode) (mainReg, backupReg, logReg *nvm.Region) {
	t.Helper()
	var err error
	mainReg, err = nvm.New(mainSize, nvm.Options{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	backupReg, err = nvm.New(backupSize, nvm.Options{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	logReg, err = nvm.New(testCfg.Log.RegionSize(), nvm.Options{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	return mainReg, backupReg, logReg
}

var testCfg = Config{Log: intentlog.Config{Slots: 32, EntriesPerSlot: 32, DataBytesPerSlot: 0}}

// factory builds engines with the given backup size and configuration over
// regions of the given device mode: strict for the conformance suite's
// crash cases, fast for the benchmark.
func factory(name string, backupSize int, cfg Config, mode nvm.Mode) enginetest.Factory {
	return enginetest.Factory{
		Name:   name,
		Atomic: true,
		New: func(t testing.TB) *enginetest.Instance {
			mainReg, backupReg, logReg := regionsMode(t, backupSize, mode)
			e, err := New(mainReg, backupReg, logReg, cfg)
			if err != nil {
				t.Fatal(err)
			}
			inst := &enginetest.Instance{Engine: e}
			inst.Crash = func() (engine.Engine, error) {
				e.Drain()
				for _, r := range []*nvm.Region{mainReg, backupReg, logReg} {
					if err := r.Crash(); err != nil {
						return nil, err
					}
				}
				if err := e.Close(); err != nil {
					return nil, err
				}
				return Open(mainReg, backupReg, logReg, cfg)
			}
			return inst
		},
	}
}

func TestConformanceSimple(t *testing.T) {
	enginetest.Run(t, factory("kamino-simple", mainSize, testCfg, nvm.ModeStrict))
}

func TestConformanceDynamic(t *testing.T) {
	// α ≈ 0.25: small enough to exercise misses and evictions.
	enginetest.Run(t, factory("kamino-dynamic", mainSize/4, testCfg, nvm.ModeStrict))
}

func BenchmarkTx1(b *testing.B) {
	enginetest.BenchTx1(b, factory("kamino-simple", mainSize, testCfg, nvm.ModeFast))
}

func TestNameReflectsMode(t *testing.T) {
	m, b, l := regions(t, mainSize)
	e, err := New(m, b, l, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "kamino" {
		t.Errorf("full backup engine name = %q", e.Name())
	}
	e.Close()
	m2, b2, l2 := regions(t, mainSize/2)
	e2, err := New(m2, b2, l2, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Name() != "kamino-dynamic" {
		t.Errorf("partial backup engine name = %q", e2.Name())
	}
	e2.Close()
}

// No data may be copied in the critical path of a commit (the paper's core
// claim). For the simple backend, BytesCopiedCritical must stay zero: it
// counts every backup copy the applier or recovery did not make.
func TestNoCriticalPathCopies(t *testing.T) {
	m, b, l := regions(t, mainSize)
	e, err := New(m, b, l, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	obj, err := tx.Alloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		tx, err := e.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Add(obj); err != nil {
			t.Fatal(err)
		}
		if err := tx.Write(obj, 0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	s := e.Stats()
	if s.BytesCopiedCritical != 0 {
		t.Errorf("critical-path copies = %d bytes, want 0", s.BytesCopiedCritical)
	}
	if s.BytesCopiedAsync == 0 {
		t.Error("no asynchronous backup syncs recorded")
	}
}

// A committed-but-unsynced transaction (crash between the commit record and
// the backup sync) must be rolled FORWARD by recovery: its effects are
// durable on main, and recovery must propagate them to the backup so later
// aborts restore the committed value.
func TestCrashBetweenCommitAndBackupSync(t *testing.T) {
	m, b, l := regions(t, mainSize)
	e, err := New(m, b, l, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Set up an object.
	tx0, _ := e.Begin()
	obj, err := tx0.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx0.Write(obj, 0, []byte("v1......")); err != nil {
		t.Fatal(err)
	}
	if err := tx0.Commit(); err != nil {
		t.Fatal(err)
	}
	e.Drain()

	// Manually perform a commit WITHOUT letting the applier run,
	// simulating a power failure after the commit record: white-box
	// reproduction of the commit path minus the enqueue.
	txi, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tx := txi.(*tx)
	if err := tx.Add(obj); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(obj, 0, []byte("v2......")); err != nil {
		t.Fatal(err)
	}
	reg := e.Heap().Region()
	for o, ws := range tx.WriteSet() {
		if err := reg.Flush(int(o)-heap.BlockHeaderSize, heap.BlockHeaderSize+ws.Class); err != nil {
			t.Fatal(err)
		}
	}
	reg.Fence()
	if err := tx.Log().SetState(intentlog.StateCommitted); err != nil {
		t.Fatal(err)
	}
	// Power failure now.
	for _, r := range []*nvm.Region{m, b, l} {
		if err := r.Crash(); err != nil {
			t.Fatal(err)
		}
	}
	e2, err := Open(m, b, l, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	// The commit must have survived...
	bts, err := e2.Heap().Bytes(obj)
	if err != nil {
		t.Fatal(err)
	}
	if string(bts[:8]) != "v2......" {
		t.Fatalf("committed value lost: %q", bts[:8])
	}
	// ...and the backup must have been rolled forward: an abort now must
	// restore v2, not v1.
	tx2, err := e2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.Add(obj); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Write(obj, 0, []byte("xx......")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	bts, _ = e2.Heap().Bytes(obj)
	if string(bts[:8]) != "v2......" {
		t.Errorf("abort after recovery restored %q, want v2......", bts[:8])
	}
}

// Dependent transactions must block until the backup sync completes, and
// independent ones must not.
func TestDependentTransactionBlocksUntilSync(t *testing.T) {
	m, b, l := regions(t, mainSize)
	// Applier stalled: we control it by using a config with 1 worker and
	// filling its queue? Simpler: observe lock release ordering via
	// HeldBy through the engine's lock table.
	e, err := New(m, b, l, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tx0, _ := e.Begin()
	obj, err := tx0.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx0.Commit(); err != nil {
		t.Fatal(err)
	}
	e.Drain()

	txA, _ := e.Begin()
	if err := txA.Add(obj); err != nil {
		t.Fatal(err)
	}
	if err := txA.Write(obj, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := txA.Commit(); err != nil {
		t.Fatal(err)
	}
	// txB depends on obj: it must eventually acquire the lock (after the
	// applier syncs) and see txA's value.
	txB, _ := e.Begin()
	if err := txB.Add(obj); err != nil {
		t.Fatal(err)
	}
	v, err := txB.Read(obj)
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 1 {
		t.Errorf("dependent tx read %d, want 1", v[0])
	}
	if err := txB.Abort(); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	if got := e.Stats().DependentWaits; got == 0 {
		t.Logf("note: dependent wait not observed (applier won the race); acceptable")
	}
}

// Dynamic backup: working set larger than the backup region forces misses
// and evictions; all data must remain correct.
func TestDynamicEvictionCorrectness(t *testing.T) {
	m, b, l := regions(t, 64<<10) // tiny backup
	e, err := New(m, b, l, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const n = 100
	objs := make([]heap.ObjID, n)
	for i := range objs {
		tx, _ := e.Begin()
		obj, err := tx.Alloc(1024)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Write(obj, 0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		objs[i] = obj
	}
	e.Drain()
	// Rewrite everything twice; the backup can only hold a fraction.
	for round := 1; round <= 2; round++ {
		for i, obj := range objs {
			tx, _ := e.Begin()
			if err := tx.Add(obj); err != nil {
				t.Fatal(err)
			}
			if err := tx.Write(obj, 0, []byte{byte(i * round)}); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.Drain()
	for i, obj := range objs {
		bts, err := e.Heap().Bytes(obj)
		if err != nil {
			t.Fatal(err)
		}
		if bts[0] != byte(i*2) {
			t.Errorf("object %d = %d, want %d", i, bts[0], byte(i*2))
		}
	}
	s := e.Stats()
	if s.BackupMisses == 0 || s.BackupEvictions == 0 {
		t.Errorf("expected misses and evictions, got misses=%d evictions=%d",
			s.BackupMisses, s.BackupEvictions)
	}
	// Every miss copies one whole block in the critical path.
	if want := s.BackupMisses * uint64(heap.BlockHeaderSize+heap.ClassForSize(1024)); s.BytesCopiedCritical != want {
		t.Errorf("critical-path copy bytes = %d, want %d (%d misses of one block each)",
			s.BytesCopiedCritical, want, s.BackupMisses)
	}
}

// Abort in dynamic mode must restore from the partial backup even after
// heavy eviction churn on other objects.
func TestDynamicAbortAfterChurn(t *testing.T) {
	m, b, l := regions(t, 64<<10)
	e, err := New(m, b, l, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tx0, _ := e.Begin()
	target, err := tx0.Alloc(512)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx0.Write(target, 0, []byte("precious")); err != nil {
		t.Fatal(err)
	}
	if err := tx0.Commit(); err != nil {
		t.Fatal(err)
	}
	// Churn: many other objects cycle through the backup.
	for i := 0; i < 80; i++ {
		tx, _ := e.Begin()
		obj, err := tx.Alloc(1024)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Write(obj, 0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	// Now modify target and abort: ensure() must (re)create its copy.
	tx, _ := e.Begin()
	if err := tx.Add(target); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(target, 0, []byte("clobber!")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	bts, _ := e.Heap().Bytes(target)
	if string(bts[:8]) != "precious" {
		t.Errorf("abort restored %q, want precious", bts[:8])
	}
}

// The dynamic backup's persistent mapping must survive crashes: after a
// reopen, entries rebuilt from backup block headers still support rollback.
func TestDynamicRebuildAfterCrash(t *testing.T) {
	m, b, l := regions(t, 128<<10)
	e, err := New(m, b, l, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	tx0, _ := e.Begin()
	obj, err := tx0.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx0.Write(obj, 0, []byte("original")); err != nil {
		t.Fatal(err)
	}
	if err := tx0.Commit(); err != nil {
		t.Fatal(err)
	}
	// Touch it again so the backup copy definitely exists and is synced.
	tx1, _ := e.Begin()
	if err := tx1.Add(obj); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Write(obj, 0, []byte("version2")); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	for _, r := range []*nvm.Region{m, b, l} {
		if err := r.Crash(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(m, b, l, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	db, ok := e2.backend.(*dynamicBackend)
	if !ok {
		t.Fatal("expected dynamic backend")
	}
	if db.size() == 0 {
		t.Error("backup map empty after rebuild")
	}
	// Rollback must work via the rebuilt map.
	tx2, _ := e2.Begin()
	if err := tx2.Add(obj); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Write(obj, 0, []byte("garbage!")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	bts, _ := e2.Heap().Bytes(obj)
	if string(bts[:8]) != "version2" {
		t.Errorf("post-rebuild abort restored %q, want version2", bts[:8])
	}
}

// Locks of a committed transaction must be released only after the backup
// matches main for the write set.
func TestLockHeldUntilBackupMatches(t *testing.T) {
	m, b, l := regions(t, mainSize)
	e, err := New(m, b, l, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tx0, _ := e.Begin()
	obj, err := tx0.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx0.Write(obj, 0, []byte("AAAA")); err != nil {
		t.Fatal(err)
	}
	if err := tx0.Commit(); err != nil {
		t.Fatal(err)
	}
	e.Drain()

	tx1, _ := e.Begin()
	if err := tx1.Add(obj); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Write(obj, 0, []byte("BBBB")); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	// By the time any other transaction can lock obj, the backup must
	// equal main for obj's block.
	tx2, _ := e.Begin()
	if err := tx2.Add(obj); err != nil { // blocks until applier released
		t.Fatal(err)
	}
	mainBytes, err := m.ReadSlice(int(obj), 4)
	if err != nil {
		t.Fatal(err)
	}
	backupBytes, err := b.ReadSlice(int(obj), 4)
	if err != nil {
		t.Fatal(err)
	}
	if string(mainBytes) != "BBBB" || string(backupBytes) != "BBBB" {
		t.Errorf("main=%q backup=%q after dependent lock acquired; want BBBB/BBBB",
			mainBytes, backupBytes)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseIdempotentAndDrains(t *testing.T) {
	m, b, l := regions(t, mainSize)
	e, err := New(m, b, l, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := e.Begin()
	obj, err := tx.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	_ = obj
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Begin after close must fail cleanly... commit path guards; Begin
	// succeeds but Commit errors.
	tx2, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err == nil {
		t.Error("Commit after Close did not error")
	}
	_ = time.Now()
}
