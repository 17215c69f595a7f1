package pbtree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"kaminotx/internal/locktable"
	"kaminotx/kamino"
)

// viewVal is a value a reader can check without knowing which write it saw:
// the key, then one filler byte repeated. The sizes make a rewrite outgrow
// its object now and then (heap classes 16, 48, 256, 1024).
func viewVal(key uint64, fill byte, size int) []byte {
	v := bytes.Repeat([]byte{fill}, size)
	binary.LittleEndian.PutUint64(v, key)
	return v
}

var viewSizes = []int{12, 40, 200, 900}

func checkViewVal(key uint64, v []byte) error {
	if len(v) < 8 || binary.LittleEndian.Uint64(v) != key {
		return fmt.Errorf("key %d: value of %d bytes was not written for it", key, len(v))
	}
	for _, b := range v[8:] {
		if b != v[8] {
			return fmt.Errorf("key %d: torn value (%d bytes)", key, len(v))
		}
	}
	return nil
}

// TestViewsUnderConcurrentRestructuring holds the view rule to account on
// every engine: at order 4 nearly every insert splits something, so readers
// descending over node bytes run beside writers replacing those bytes —
// splits, deletes, values outgrowing their objects. Each writer owns a
// residue class of the keys and so knows their final state; a reader must
// only ever see a value written for the key it asked for. Under -race a view
// read outside its latch is a detector error.
func TestViewsUnderConcurrentRestructuring(t *testing.T) {
	for _, mode := range kamino.Modes() {
		t.Run(string(mode), func(t *testing.T) {
			tree := newTree(t, mode, MinOrder)
			const (
				keys    = 240
				writers = 3
				readers = 3
				rounds  = 400
			)
			var (
				stop atomic.Bool
				wg   sync.WaitGroup
				rwg  sync.WaitGroup
				errs = make(chan error, writers+readers)
			)
			final := make([]map[uint64][]byte, writers)
			for w := 0; w < writers; w++ {
				wg.Add(1)
				final[w] = make(map[uint64][]byte)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					mine := final[w]
					for i := 0; i < rounds; i++ {
						k := uint64(rng.Intn(keys/writers)*writers + w)
						if _, ok := mine[k]; ok && rng.Intn(4) == 0 {
							if deleted, err := tree.Delete(k); err != nil || !deleted {
								errs <- fmt.Errorf("Delete(%d) = %v, %v", k, deleted, err)
								return
							}
							delete(mine, k)
							continue
						}
						v := viewVal(k, byte(i), viewSizes[rng.Intn(len(viewSizes))])
						if err := tree.Put(k, v); err != nil {
							errs <- fmt.Errorf("Put(%d): %w", k, err)
							return
						}
						mine[k] = v
					}
				}(w)
			}
			for r := 0; r < readers; r++ {
				rwg.Add(1)
				go func(r int) {
					defer rwg.Done()
					rng := rand.New(rand.NewSource(int64(100 + r)))
					for !stop.Load() {
						k := uint64(rng.Intn(keys))
						if v, ok, err := tree.Get(k); err != nil {
							errs <- fmt.Errorf("Get(%d): %w", k, err)
							return
						} else if ok {
							if err := checkViewVal(k, v); err != nil {
								errs <- fmt.Errorf("Get: %w", err)
								return
							}
						}
						kvs, err := tree.Scan(k, 8)
						if err != nil {
							errs <- fmt.Errorf("Scan(%d): %w", k, err)
							return
						}
						prev := k
						for i, kv := range kvs {
							if kv.Key < prev || (i > 0 && kv.Key == prev) {
								errs <- fmt.Errorf("Scan(%d): key %d after %d", k, kv.Key, prev)
								return
							}
							if err := checkViewVal(kv.Key, kv.Value); err != nil {
								errs <- fmt.Errorf("Scan: %w", err)
								return
							}
							prev = kv.Key
						}
					}
				}(r)
			}
			wg.Wait()
			stop.Store(true)
			rwg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			tree.pool.Drain()
			if err := tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			want := 0
			for _, mine := range final {
				want += len(mine)
				for k, v := range mine {
					if got, ok, err := tree.Get(k); err != nil || !ok || !bytes.Equal(got, v) {
						t.Fatalf("key %d after the run: %d bytes, %v, %v; want the last value put (%d bytes)", k, len(got), ok, err, len(v))
					}
				}
			}
			if n, err := tree.Count(); err != nil || n != want {
				t.Fatalf("Count = %d, %v; want %d", n, err, want)
			}
		})
	}
}

// TestGetReadLocks pins the read path's locking: a Get reads the leaf once,
// through the transaction, and then the value — one read lock each, none
// for the levels above — and a miss stops at the leaf.
func TestGetReadLocks(t *testing.T) {
	tree := newTree(t, kamino.ModeSimple, MinOrder)
	for k := uint64(0); k < 100; k += 2 {
		if err := tree.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	tree.pool.Drain()
	locks := tree.pool.Engine().(interface{ Locks() *locktable.Table }).Locks()
	for _, c := range []struct {
		key  uint64
		want uint64
	}{{40, 2}, {41, 1}} {
		before := locks.RLockCalls()
		if _, ok, err := tree.Get(c.key); err != nil || ok != (c.want == 2) {
			t.Fatalf("Get(%d) = %v, %v", c.key, ok, err)
		}
		if got := locks.RLockCalls() - before; got != c.want {
			t.Errorf("Get(%d) took %d read locks, want %d", c.key, got, c.want)
		}
	}
}
