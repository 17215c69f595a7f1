package kamino_test

// Recovery-path tests spanning the pool's public surface: the staged
// report, Open overrides, directories older builds and interrupted
// creates leave behind, a real kill -9, and the crash-storm regression — they exercise
// kvstore/pbtree over the pool, so they live in the external test package.

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
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
	if err := pool.Close(); err != nil {
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

	// A pool.json written by a binary that still had the three options
	// since retired opens, serves its keys, and is rewritten without any
	// of those fields.
	metaPath := filepath.Join(dir, "pool.json")
	meta, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	meta = bytes.Replace(meta, []byte("{"), []byte(`{"shards": 4, "group_commit": true, "root_size": 256,`), 1)
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
	for _, retired := range []string{"shards", "group_commit", "root_size"} {
		if bytes.Contains(meta, []byte(retired)) {
			t.Errorf("open wrote retired field %q back to pool.json:\n%s", retired, meta)
		}
	}
}

// TestOpenDirectoryOfOlderBuild: builds that checkpointed volatile index
// state left an index.ckpt beside the images and kept an image epoch, a
// scan segment span and a directory of block offsets in bytes 32..2047 of
// every heap header. Such a directory opens, every key reads back, and
// neither the open nor the close needs or rewrites the stray file.
func TestOpenDirectoryOfOlderBuild(t *testing.T) {
	for _, mode := range []kamino.Mode{kamino.ModeSimple, kamino.ModeDynamic} {
		dir := t.TempDir()
		pool, err := kamino.Create(kamino.Options{Mode: mode, HeapSize: 8 << 20, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		store, err := kvstore.Create(pool, 8)
		if err != nil {
			t.Fatal(err)
		}
		model := map[uint64][]byte{}
		fillStore(t, store, model, 0, 300)
		pool.Drain()
		reg := pool.Engine().Heap().Region()
		for off, v := range map[int]uint64{32: 17, 40: 64 << 10} { // epoch, span
			if err := reg.Store64(off, v); err != nil {
				t.Fatal(err)
			}
		}
		for off := 64; off < heap.DataStart; off += 8 { // a full directory
			if err := reg.Store64(off, uint64(heap.DataStart+off*16)); err != nil {
				t.Fatal(err)
			}
		}
		if err := reg.Persist(0, heap.DataStart); err != nil {
			t.Fatal(err)
		}
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
		ckpt := filepath.Join(dir, "index.ckpt")
		blob := []byte("KIDX\x01\x00\x00\x00 what an older build's checkpoint left here")
		if err := os.WriteFile(ckpt, blob, 0o644); err != nil {
			t.Fatal(err)
		}

		pool, err = kamino.Open(dir)
		if err != nil {
			t.Fatalf("%s: Open: %v", mode, err)
		}
		if store, err = kvstore.Open(pool); err != nil {
			t.Fatalf("%s: kvstore.Open: %v", mode, err)
		}
		verifyStore(t, store, model)
		fillStore(t, store, model, 300, 350)
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(ckpt); err != nil || !bytes.Equal(got, blob) {
			t.Errorf("%s: index.ckpt after a reopen: %q, %v; want it untouched", mode, got, err)
		}
		if pool, err = kamino.Open(dir); err != nil {
			t.Fatal(err)
		}
		if store, err = kvstore.Open(pool); err != nil {
			t.Fatal(err)
		}
		verifyStore(t, store, model)
		pool.Close()
	}
}

// TestCreateWritesPoolJSONLast: pool.json is the last file Create writes,
// through a temporary file and a rename. A directory without pool.json — a
// first start killed before it — holds no pool: Open refuses it and Create
// starts over in it. A truncated pool.json.tmp beside a finished pool.json
// does not stop an open, and the next write of pool.json replaces it.
func TestCreateWritesPoolJSONLast(t *testing.T) {
	dir := t.TempDir()
	opts := kamino.Options{HeapSize: 4 << 20, Dir: dir}
	pool, err := kamino.Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	metaPath := filepath.Join(dir, "pool.json")
	if err := os.Remove(metaPath); err != nil {
		t.Fatal(err)
	}
	if pool, err := kamino.Open(dir); err == nil {
		pool.Close()
		t.Fatal("Open accepted a directory without pool.json")
	}

	pool, err = kamino.Create(opts)
	if err != nil {
		t.Fatalf("Create over the region files of an unfinished create: %v", err)
	}
	store, err := kvstore.Create(pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	model := map[uint64][]byte{}
	fillStore(t, store, model, 0, 50)
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	meta, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	tmp := metaPath + ".tmp"
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("a finished create left pool.json.tmp behind (stat: %v)", err)
	}
	if err := os.WriteFile(tmp, meta[:len(meta)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	// A changed tunable makes this open write pool.json.
	pool, err = kamino.Open(dir, kamino.Options{ApplierWorkers: 1})
	if err != nil {
		t.Fatalf("Open beside a truncated pool.json.tmp: %v", err)
	}
	if store, err = kvstore.Open(pool); err != nil {
		t.Fatal(err)
	}
	verifyStore(t, store, model)
	pool.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("writing pool.json left pool.json.tmp behind (stat: %v)", err)
	}
	if got, err := os.ReadFile(metaPath); err != nil || !bytes.Contains(got, []byte(`"applier_workers": 1`)) {
		t.Errorf("pool.json after the open: %q, %v; want applier_workers 1", got, err)
	}
}

// TestCrashStormKVStore is the crash-storm regression: 24 cycles of
// writes → Crash/CrashPartial → reopen over a live kvstore. Every cycle
// asserts zero audit violations on the full trace, structural invariants,
// and that every acknowledged write is readable.
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

// killValue is every put's value for key k, so a put that was in flight at
// the kill leaves the key with the same bytes as an acknowledged one.
func killValue(k uint64) []byte {
	return bytes.Repeat([]byte{byte(k), byte(k >> 8), 0x5A}, 10+int(k%40))
}

// TestKillNineKeepsAcknowledgedWrites is a real process death: the test
// binary runs itself again as a child that writes to a file-backed pool and
// prints each key as its put is acknowledged, and is killed with SIGKILL —
// no Close, no drain. The reopened directory holds every printed key with
// its exact value and a sound tree, for a fast pool (the files are the
// volatile view) and a strict one (the files are the fenced lines).
func TestKillNineKeepsAcknowledgedWrites(t *testing.T) {
	if dir := os.Getenv("KAMINO_KILL_CHILD_DIR"); dir != "" {
		killChild(dir, os.Getenv("KAMINO_KILL_CHILD_STRICT") == "true")
		return
	}
	for i, strict := range []bool{false, true} {
		dir := t.TempDir()
		cmd := exec.Command(os.Args[0], "-test.run=^TestKillNineKeepsAcknowledgedWrites$")
		cmd.Env = append(os.Environ(), "KAMINO_KILL_CHILD_DIR="+dir, fmt.Sprintf("KAMINO_KILL_CHILD_STRICT=%v", strict))
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		killAt := 700 + 337*i // a different instant of the write stream each time
		acked := map[uint64]bool{}
		sc := bufio.NewScanner(out)
		for n := 0; n < killAt && sc.Scan(); {
			var k uint64
			if _, err := fmt.Sscanf(sc.Text(), "acked %d", &k); err == nil {
				acked[k] = true
				n++
			}
		}
		cmd.Process.Kill()
		cmd.Wait()
		if len(acked) == 0 {
			t.Fatalf("strict=%v: the child acknowledged nothing", strict)
		}
		t.Logf("strict=%v: killed after %d acknowledged puts, %d keys", strict, killAt, len(acked))

		pool, err := kamino.Open(dir)
		if err != nil {
			t.Fatalf("strict=%v: reopen after kill -9: %v", strict, err)
		}
		store, err := kvstore.Open(pool)
		if err != nil {
			t.Fatalf("strict=%v: %v", strict, err)
		}
		if err := store.Tree().CheckInvariants(); err != nil {
			t.Fatalf("strict=%v: %v", strict, err)
		}
		for k := range acked {
			if got, ok, err := store.Read(k); err != nil || !ok || !bytes.Equal(got, killValue(k)) {
				t.Errorf("strict=%v: acknowledged key %d reads %x, %v, %v", strict, k, got, ok, err)
			}
		}
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// killChild is the child's side: create the pool and put until killed,
// printing each acknowledged key.
func killChild(dir string, strict bool) {
	pool, err := kamino.Create(kamino.Options{HeapSize: 8 << 20, Strict: strict, Dir: dir})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	store, err := kvstore.Create(pool, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for i := uint64(0); ; i++ {
		k := i * 7919 % 600 // keys are inserted, then overwritten
		if err := store.Update(k, killValue(k)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("acked %d\n", k)
	}
}
