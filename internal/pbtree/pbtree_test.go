package pbtree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"kaminotx/kamino"
)

func newTree(t *testing.T, mode kamino.Mode, order int) *Tree {
	t.Helper()
	p, err := kamino.Create(kamino.Options{Mode: mode, HeapSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	tree, err := Create(p, order)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestPutGetSmall(t *testing.T) {
	tree := newTree(t, kamino.ModeSimple, 4)
	for i := uint64(1); i <= 50; i++ {
		if err := tree.Put(i, []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	for i := uint64(1); i <= 50; i++ {
		v, ok, err := tree.Get(i)
		if err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
		if !ok || string(v) != fmt.Sprintf("val-%d", i) {
			t.Errorf("Get(%d) = %q, %v", i, v, ok)
		}
	}
	if _, ok, _ := tree.Get(999); ok {
		t.Error("Get of absent key reported found")
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateValue(t *testing.T) {
	tree := newTree(t, kamino.ModeSimple, 8)
	if err := tree.Put(7, []byte("short")); err != nil {
		t.Fatal(err)
	}
	if err := tree.Put(7, []byte("tiny")); err != nil { // fits in place
		t.Fatal(err)
	}
	v, ok, err := tree.Get(7)
	if err != nil || !ok || string(v) != "tiny" {
		t.Fatalf("after in-place update: %q %v %v", v, ok, err)
	}
	big := make([]byte, 500) // forces value-object replacement
	for i := range big {
		big[i] = byte(i)
	}
	if err := tree.Put(7, big); err != nil {
		t.Fatal(err)
	}
	v, ok, err = tree.Get(7)
	if err != nil || !ok || len(v) != 500 || v[499] != big[499] {
		t.Fatalf("after grow update: len=%d %v %v", len(v), ok, err)
	}
}

func TestDelete(t *testing.T) {
	tree := newTree(t, kamino.ModeSimple, 6)
	for i := uint64(0); i < 100; i++ {
		if err := tree.Put(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 100; i += 2 {
		ok, err := tree.Delete(i)
		if err != nil {
			t.Fatalf("Delete(%d): %v", i, err)
		}
		if !ok {
			t.Errorf("Delete(%d) = not found", i)
		}
	}
	ok, err := tree.Delete(2)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("double delete reported found")
	}
	for i := uint64(0); i < 100; i++ {
		_, ok, err := tree.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		if ok != (i%2 == 1) {
			t.Errorf("Get(%d) found=%v", i, ok)
		}
	}
	n, err := tree.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Errorf("Count = %d, want 50", n)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestScan(t *testing.T) {
	tree := newTree(t, kamino.ModeSimple, 5)
	for i := uint64(0); i < 60; i += 2 {
		if err := tree.Put(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	kvs, err := tree.Scan(11, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 10 {
		t.Fatalf("Scan returned %d pairs", len(kvs))
	}
	for i, kv := range kvs {
		want := uint64(12 + 2*i)
		if kv.Key != want || kv.Value[0] != byte(want) {
			t.Errorf("scan[%d] = %d (%v), want %d", i, kv.Key, kv.Value, want)
		}
	}
	// Scan past the end.
	kvs, err = tree.Scan(1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 0 {
		t.Errorf("Scan past end returned %d pairs", len(kvs))
	}
}

func TestAttach(t *testing.T) {
	p, err := kamino.Create(kamino.Options{Mode: kamino.ModeSimple, HeapSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	tree, err := Create(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Put(42, []byte("answer")); err != nil {
		t.Fatal(err)
	}
	tree2, err := Attach(p, tree.Meta())
	if err != nil {
		t.Fatal(err)
	}
	if tree2.Order() != 8 {
		t.Errorf("attached order = %d", tree2.Order())
	}
	v, ok, err := tree2.Get(42)
	if err != nil || !ok || string(v) != "answer" {
		t.Fatalf("attached Get = %q %v %v", v, ok, err)
	}
}

func TestLargeSequentialAndRandom(t *testing.T) {
	for _, mode := range []kamino.Mode{kamino.ModeSimple, kamino.ModeDynamic, kamino.ModeUndo, kamino.ModeCoW} {
		t.Run(string(mode), func(t *testing.T) {
			tree := newTree(t, mode, 16)
			const n = 3000
			perm := rand.New(rand.NewSource(1)).Perm(n)
			for _, k := range perm {
				if err := tree.Put(uint64(k), []byte(fmt.Sprintf("v%d", k))); err != nil {
					t.Fatalf("Put(%d): %v", k, err)
				}
			}
			count, err := tree.Count()
			if err != nil {
				t.Fatal(err)
			}
			if count != n {
				t.Fatalf("Count = %d, want %d", count, n)
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i += 37 {
				v, ok, err := tree.Get(uint64(i))
				if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
					t.Fatalf("Get(%d) = %q %v %v", i, v, ok, err)
				}
			}
		})
	}
}

func TestConcurrentMixedWorkload(t *testing.T) {
	tree := newTree(t, kamino.ModeSimple, 16)
	const keys = 500
	for i := uint64(0); i < keys; i++ {
		if err := tree.Put(i, []byte{0}); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				k := uint64(rng.Intn(keys * 2))
				switch rng.Intn(3) {
				case 0:
					if err := tree.Put(k, []byte{byte(i)}); err != nil {
						errCh <- err
						return
					}
				case 1:
					if _, _, err := tree.Get(k); err != nil {
						errCh <- err
						return
					}
				case 2:
					if _, err := tree.Delete(k); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecoveryPreservesTree(t *testing.T) {
	p, err := kamino.Create(kamino.Options{Mode: kamino.ModeSimple, HeapSize: 8 << 20, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	tree, err := Create(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 200; i++ {
		if err := tree.Put(i, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Crash(); err != nil {
		t.Fatal(err)
	}
	tree2, err := Attach(p, tree.Meta())
	if err != nil {
		t.Fatal(err)
	}
	if err := tree2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	n, err := tree2.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 200 {
		t.Errorf("Count after crash = %d, want 200", n)
	}
	for i := uint64(0); i < 200; i += 13 {
		v, ok, err := tree2.Get(i)
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%d) after crash = %q %v %v", i, v, ok, err)
		}
	}
}

// PROPERTY: the tree agrees with a map model under random put/get/delete.
func TestPropertyAgainstMapModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, err := kamino.Create(kamino.Options{Mode: kamino.ModeSimple, HeapSize: 16 << 20})
		if err != nil {
			return false
		}
		defer p.Close()
		tree, err := Create(p, 4+rng.Intn(12))
		if err != nil {
			return false
		}
		model := make(map[uint64]string)
		for i := 0; i < 400; i++ {
			k := uint64(rng.Intn(120))
			switch rng.Intn(4) {
			case 0, 1: // put
				v := fmt.Sprintf("v%d-%d", k, i)
				if err := tree.Put(k, []byte(v)); err != nil {
					return false
				}
				model[k] = v
			case 2: // get
				v, ok, err := tree.Get(k)
				if err != nil {
					return false
				}
				want, wok := model[k]
				if ok != wok || (ok && string(v) != want) {
					return false
				}
			case 3: // delete
				ok, err := tree.Delete(k)
				if err != nil {
					return false
				}
				_, wok := model[k]
				if ok != wok {
					return false
				}
				delete(model, k)
			}
		}
		if err := tree.CheckInvariants(); err != nil {
			return false
		}
		n, err := tree.Count()
		return err == nil && n == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestAttachWalksAndChecks: Attach is one walk of the tree. It publishes
// what it counted, and it refuses a tree in which a single leaf holds two
// keys out of order.
func TestAttachWalksAndChecks(t *testing.T) {
	tree := newTree(t, kamino.ModeSimple, 4)
	for i := uint64(1); i <= 50; i++ {
		if err := tree.Put(i, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	pool := tree.pool
	if _, err := Attach(pool, tree.Meta()); err != nil {
		t.Fatalf("Attach on a sound tree: %v", err)
	}
	g := pool.Obs().Snapshot().Gauges
	if g["pbtree_keys"] != 50 || g["pbtree_depth"] < 3 || g["pbtree_nodes"] < 13 {
		t.Errorf("gauges after Attach: keys=%d depth=%d nodes=%d; want 50 keys in at least 13 nodes on 3 levels",
			g["pbtree_keys"], g["pbtree_depth"], g["pbtree_nodes"])
	}

	// Descend to the leftmost leaf and swap its first two keys in place.
	obj, err := tree.rootPtr()
	if err != nil {
		t.Fatal(err)
	}
	nd, err := tree.nodeView(obj)
	for err == nil && !nd.leaf() {
		obj = nd.ptr(0)
		nd, err = tree.nodeView(obj)
	}
	if err != nil || nd.nkeys() < 2 {
		t.Fatalf("leftmost leaf %d: %d keys, %v", obj, nd.nkeys(), err)
	}
	var swapped [16]byte
	binary.LittleEndian.PutUint64(swapped[0:], nd.key(1))
	binary.LittleEndian.PutUint64(swapped[8:], nd.key(0))
	err = pool.Update(func(tx *kamino.Tx) error {
		if err := tx.Add(obj); err != nil {
			return err
		}
		return tx.Write(obj, offKeys, swapped[:])
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(pool, tree.Meta()); err == nil || !strings.Contains(err.Error(), "not strictly sorted") {
		t.Fatalf("Attach on a tree with leaf %d out of order: %v; want a sort-order error", obj, err)
	}
}

// benchTree is a kamino-simple tree of keys 1 KiB values at the default
// order: the gated benchmark's shape, smaller.
func benchTree(b *testing.B, keys uint64) (*Tree, []byte) {
	b.Helper()
	pool, err := kamino.Create(kamino.Options{Mode: kamino.ModeSimple, HeapSize: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { pool.Close() })
	tree, err := Create(pool, 0)
	if err != nil {
		b.Fatal(err)
	}
	val := bytes.Repeat([]byte{1}, 1024)
	for k := uint64(0); k < keys; k++ {
		if err := tree.Put(k, val); err != nil {
			b.Fatal(err)
		}
	}
	pool.Drain()
	return tree, val
}

// BenchmarkGet is one point lookup: a descent over node bytes, two read
// locks (leaf, value), one copy of the value.
func BenchmarkGet(b *testing.B) {
	const keys = 20000
	tree, _ := benchTree(b, keys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := tree.Get(uint64(i*7919) % keys); err != nil || !ok {
			b.Fatalf("Get: %v %v", ok, err)
		}
	}
}

// BenchmarkPut is one in-place overwrite of an existing key.
func BenchmarkPut(b *testing.B) {
	const keys = 20000
	tree, val := benchTree(b, keys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tree.Put(uint64(i*7919)%keys, val); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	tree.pool.Drain()
}
