package kamino_test

// Recovery-path tests spanning the pool's public surface: index
// checkpoints (warm vs cold reopen, stale-epoch fallback), Open overrides,
// and the crash-storm regression — they exercise kvstore/pbtree over the
// pool, so they live in the external test package.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"kaminotx/internal/heap"
	"kaminotx/internal/kvstore"
	"kaminotx/internal/obs"
	"kaminotx/internal/trace"
	"kaminotx/kamino"
)

func fillStore(t *testing.T, store *kvstore.Store, model map[uint64][]byte, lo, hi uint64) {
	t.Helper()
	for k := lo; k < hi; k++ {
		v := []byte(fmt.Sprintf("value-%d", k))
		if err := store.Insert(k, v); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
		model[k] = v
	}
}

func verifyStore(t *testing.T, store *kvstore.Store, model map[uint64][]byte) {
	t.Helper()
	for k, want := range model {
		got, ok, err := store.Read(k)
		if err != nil {
			t.Fatalf("read %d: %v", k, err)
		}
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("read %d: got (%q, %v), want %q", k, got, ok, want)
		}
	}
}

// TestIndexCheckpointWarmReopen: SnapshotIndex then Crash with no
// intervening transactions restores both the dynamic backend's lookup
// table and the pbtree census without the cold scans, and the store works.
func TestIndexCheckpointWarmReopen(t *testing.T) {
	pool, err := kamino.Create(kamino.Options{Mode: kamino.ModeDynamic, Strict: true, HeapSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	store, err := kvstore.Create(pool, 8)
	if err != nil {
		t.Fatal(err)
	}
	model := map[uint64][]byte{}
	fillStore(t, store, model, 0, 400)

	if err := pool.SnapshotIndex(); err != nil {
		t.Fatalf("SnapshotIndex: %v", err)
	}
	if err := pool.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if n := pool.Obs().Counter("recovery_index_warm").Load(); n != 1 {
		t.Fatalf("recovery_index_warm = %d, want 1 (cold=%d)", n,
			pool.Obs().Counter("recovery_index_cold").Load())
	}
	store, err = kvstore.Open(pool)
	if err != nil {
		t.Fatalf("kvstore.Open after warm crash: %v", err)
	}
	if n := pool.Obs().Counter("pbtree_attach_warm").Load(); n != 1 {
		t.Fatalf("pbtree_attach_warm = %d, want 1 (cold=%d)", n,
			pool.Obs().Counter("pbtree_attach_cold").Load())
	}
	verifyStore(t, store, model)
	// The warm-attached tree must be fully operational, not just readable.
	fillStore(t, store, model, 400, 500)
	verifyStore(t, store, model)
	if err := store.Tree().CheckInvariants(); err != nil {
		t.Fatalf("invariants after warm reopen: %v", err)
	}
}

// TestRecoveryReportStages: a reopen runs its stages in dependency order,
// times each into its phase histogram and the RecoveryReport, and leaves
// recovery_progress at 100; a freshly created pool reports nothing. Each
// mode runs the stages its mechanism has: a lookup-table attach on kamino,
// no log replay on nolog.
func TestRecoveryReportStages(t *testing.T) {
	for mode, want := range map[kamino.Mode][]obs.Phase{
		kamino.ModeSimple: {obs.PhaseRecoveryIndexAttach, obs.PhaseRecoveryLogReplay, obs.PhaseRecoveryRescan},
		kamino.ModeUndo:   {obs.PhaseRecoveryLogReplay, obs.PhaseRecoveryRescan},
		kamino.ModeNoLog:  {obs.PhaseRecoveryRescan},
	} {
		pool, err := kamino.Create(kamino.Options{Mode: mode, Strict: true, HeapSize: 4 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if r := pool.RecoveryReport(); r != nil {
			t.Errorf("%s: fresh pool reports recovery stages %v", mode, r)
		}
		if err := pool.Crash(); err != nil {
			t.Fatalf("%s: Crash: %v", mode, err)
		}
		var got []obs.Phase
		for _, st := range pool.RecoveryReport() {
			got = append(got, st.Stage)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: recovery stages %v, want %v", mode, got, want)
		}
		snap := pool.Obs().Snapshot()
		for _, ph := range want {
			if n := snap.Phases[ph].Count; n != 1 {
				t.Errorf("%s: phase %s observed %d times, want 1", mode, ph, n)
			}
		}
		if p := snap.Gauges["recovery_progress"]; p != 100 {
			t.Errorf("%s: recovery_progress = %d after recovery, want 100", mode, p)
		}
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIndexCheckpointStaleFallsCold: a transaction after the snapshot
// bumps the image epoch, so the crash-reopen must ignore the checkpoint
// and rebuild cold — and still see the post-snapshot write.
func TestIndexCheckpointStaleFallsCold(t *testing.T) {
	pool, err := kamino.Create(kamino.Options{Mode: kamino.ModeDynamic, Strict: true, HeapSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	store, err := kvstore.Create(pool, 8)
	if err != nil {
		t.Fatal(err)
	}
	model := map[uint64][]byte{}
	fillStore(t, store, model, 0, 200)
	if err := pool.SnapshotIndex(); err != nil {
		t.Fatalf("SnapshotIndex: %v", err)
	}
	fillStore(t, store, model, 200, 250) // invalidates the snapshot
	pool.Drain()
	if err := pool.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if n := pool.Obs().Counter("recovery_index_cold").Load(); n != 1 {
		t.Fatalf("recovery_index_cold = %d, want 1 (warm=%d)", n,
			pool.Obs().Counter("recovery_index_warm").Load())
	}
	store, err = kvstore.Open(pool)
	if err != nil {
		t.Fatal(err)
	}
	if n := pool.Obs().Counter("pbtree_attach_cold").Load(); n != 1 {
		t.Fatalf("pbtree_attach_cold = %d, want 1 (warm=%d)", n,
			pool.Obs().Counter("pbtree_attach_warm").Load())
	}
	verifyStore(t, store, model)
}

// TestOpenOverrides: tunables override on reopen; structural conflicts
// fail fast; stored tunables round-trip through pool.json.
func TestOpenOverrides(t *testing.T) {
	dir := t.TempDir()
	pool, err := kamino.Create(kamino.Options{
		Mode:     kamino.ModeSimple,
		HeapSize: 4 << 20,
		Dir:      dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := kvstore.Create(pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	model := map[uint64][]byte{}
	fillStore(t, store, model, 0, 100)
	if err := pool.Close(); err != nil { // checkpoints into dir
		t.Fatal(err)
	}

	// Tunable overrides apply; data is intact.
	rec := trace.NewRecorder(1 << 14)
	pool, err = kamino.Open(dir, kamino.Options{ApplierWorkers: 1, Trace: rec})
	if err != nil {
		t.Fatalf("Open with tunable overrides: %v", err)
	}
	store, err = kvstore.Open(pool)
	if err != nil {
		t.Fatal(err)
	}
	verifyStore(t, store, model)
	fillStore(t, store, model, 100, 120)
	pool.Drain()
	if rec.Total() == 0 {
		t.Fatal("trace override ignored: no events recorded")
	}
	if vs := trace.AuditAll(rec.Events()); len(vs) != 0 {
		t.Fatalf("audit violations: %v", vs)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}

	// Structural conflicts are rejected.
	for _, bad := range []kamino.Options{
		{HeapSize: 8 << 20},
		{Mode: kamino.ModeUndo},
		{LogSlots: 7},
		{Strict: true},
	} {
		if _, err := kamino.Open(dir, bad); err == nil {
			t.Fatalf("Open accepted conflicting structural override %+v", bad)
		}
	}

	// A matching structural value is not a conflict.
	pool, err = kamino.Open(dir, kamino.Options{Mode: kamino.ModeSimple, HeapSize: 4 << 20})
	if err != nil {
		t.Fatalf("Open with matching structural values: %v", err)
	}
	pool.Close()

	// A pool.json written by a binary that still had the two options since
	// retired opens, serves its keys, and checkpoints again without either
	// field.
	metaPath := filepath.Join(dir, "pool.json")
	meta, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	meta = bytes.Replace(meta, []byte("{"), []byte(`{"shards": 4, "group_commit": true,`), 1)
	if err := os.WriteFile(metaPath, meta, 0o644); err != nil {
		t.Fatal(err)
	}
	pool, err = kamino.Open(dir)
	if err != nil {
		t.Fatalf("Open with retired fields in pool.json: %v", err)
	}
	if store, err = kvstore.Open(pool); err != nil {
		t.Fatal(err)
	}
	verifyStore(t, store, model)
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if meta, err = os.ReadFile(metaPath); err != nil {
		t.Fatal(err)
	}
	for _, retired := range []string{"shards", "group_commit"} {
		if bytes.Contains(meta, []byte(retired)) {
			t.Errorf("checkpoint wrote retired field %q back to pool.json:\n%s", retired, meta)
		}
	}
}

// TestOpenWarmFromFileCheckpoint: Close writes index.ckpt; the next Open
// restores it and the attach is warm end to end (backend + census).
func TestOpenWarmFromFileCheckpoint(t *testing.T) {
	dir := t.TempDir()
	pool, err := kamino.Create(kamino.Options{Mode: kamino.ModeDynamic, HeapSize: 8 << 20, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	store, err := kvstore.Create(pool, 8)
	if err != nil {
		t.Fatal(err)
	}
	model := map[uint64][]byte{}
	fillStore(t, store, model, 0, 300)
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}

	pool, err = kamino.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := pool.Obs().Counter("recovery_index_warm").Load(); n != 1 {
		t.Fatalf("recovery_index_warm = %d, want 1 (cold=%d)", n,
			pool.Obs().Counter("recovery_index_cold").Load())
	}
	store, err = kvstore.Open(pool)
	if err != nil {
		t.Fatal(err)
	}
	if n := pool.Obs().Counter("pbtree_attach_warm").Load(); n != 1 {
		t.Fatalf("pbtree_attach_warm = %d, want 1 (cold=%d)", n,
			pool.Obs().Counter("pbtree_attach_cold").Load())
	}
	verifyStore(t, store, model)
	pool.Close()
}

// TestCrashStormKVStore is the crash-storm regression: 24 cycles of
// writes → Crash/CrashPartial → reopen over a live kvstore. Every cycle
// asserts zero audit violations on the full trace, parallel/sequential
// rescan agreement on the recovered heap, structural invariants, and that
// every acknowledged write is readable.
func TestCrashStormKVStore(t *testing.T) {
	rec := trace.NewRecorder(1 << 17)
	pool, err := kamino.Create(kamino.Options{
		Mode:     kamino.ModeDynamic,
		Strict:   true,
		HeapSize: 8 << 20,
		Trace:    rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := kvstore.Create(pool, 8)
	if err != nil {
		t.Fatal(err)
	}
	model := map[uint64][]byte{}
	next := uint64(0)
	const cycles = 24
	for cycle := 0; cycle < cycles; cycle++ {
		// Mixed live traffic: inserts, overwrites (growing values force
		// value-object reallocation), deletes.
		fillStore(t, store, model, next, next+60)
		next += 60
		for k := range model {
			if k%5 == uint64(cycle%5) {
				v := []byte(fmt.Sprintf("cycle-%d-rewrite-%d-%s", cycle, k, "padpadpadpad"))
				if err := store.Update(k, v); err != nil {
					t.Fatalf("cycle %d update %d: %v", cycle, k, err)
				}
				model[k] = v
			}
		}
		for k := range model {
			if k%11 == uint64(cycle%11) {
				if _, err := store.Delete(k); err != nil {
					t.Fatalf("cycle %d delete %d: %v", cycle, k, err)
				}
				delete(model, k)
			}
		}
		pool.Drain()

		if cycle%2 == 0 {
			err = pool.Crash()
		} else {
			err = pool.CrashPartial(int64(cycle) * 7919)
		}
		if err != nil {
			t.Fatalf("cycle %d crash: %v", cycle, err)
		}
		if vs := trace.AuditAll(rec.Events()); len(vs) != 0 {
			t.Fatalf("cycle %d: audit violations: %v", cycle, vs)
		}
		// Free-list agreement: the recovery rescan (parallel when the
		// segment directory allows) must have produced exactly the state
		// a sequential rescan derives from the same image.
		h := pool.Engine().Heap()
		got := h.FreeListSnapshot()
		if err := h.RescanSequential(); err != nil {
			t.Fatalf("cycle %d: sequential rescan: %v", cycle, err)
		}
		if want := h.FreeListSnapshot(); !equalFreeLists(got, want) {
			t.Fatalf("cycle %d: recovery free lists disagree with sequential rescan", cycle)
		}
		store, err = kvstore.Open(pool)
		if err != nil {
			t.Fatalf("cycle %d: kvstore.Open: %v", cycle, err)
		}
		if err := store.Tree().CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: invariants: %v", cycle, err)
		}
		verifyStore(t, store, model)
	}
}

func equalFreeLists(a, b map[int][][]heap.ObjID) bool {
	return reflect.DeepEqual(a, b)
}
