package locktable

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestStressOverlappingKeySets hammers the striped table with 64
// goroutines whose key windows overlap their neighbours', mixing write
// locks, two-key transactions and read locks. The plain (non-atomic)
// counters are guarded only by the table's write locks, so under -race
// any mutual-exclusion failure — a bucket-boundary bug, a broken upgrade,
// a wakeup delivered to the wrong waiter — becomes a hard detector error;
// a lost wakeup hangs the test instead of passing it.
func TestStressOverlappingKeySets(t *testing.T) {
	const (
		goroutines = 64
		iters      = 300
		keyspace   = 32
		window     = 6
	)
	tbl := New()
	keys := keysInBuckets(keyspace, 8) // four keys a bucket: exercises shared-bucket waits
	counters := make([]int, keyspace)
	var readSink atomic.Int64
	var wantTotal atomic.Int64

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			owner := Owner(g + 1)
			rng := rand.New(rand.NewSource(int64(g)))
			base := (g / 2) % keyspace // adjacent goroutines share a window
			for i := 0; i < iters; i++ {
				k1 := (base + rng.Intn(window)) % keyspace
				k2 := (base + rng.Intn(window)) % keyspace
				if k1 > k2 {
					k1, k2 = k2, k1 // ascending acquisition: no deadlock cycles
				}
				if i%4 == 0 {
					tbl.RLock(keys[k1], owner)
					readSink.Add(int64(counters[k1]))
					tbl.RUnlock(keys[k1], owner)
					continue
				}
				tbl.Lock(keys[k1], owner)
				if k2 != k1 {
					tbl.Lock(keys[k2], owner)
				}
				counters[k1]++
				wantTotal.Add(1)
				if k2 != k1 {
					counters[k2]++
					wantTotal.Add(1)
					tbl.Unlock(keys[k2], owner)
				}
				tbl.Unlock(keys[k1], owner)
			}
		}(g)
	}
	wg.Wait()

	total := 0
	for _, c := range counters {
		total += c
	}
	if int64(total) != wantTotal.Load() {
		t.Errorf("lost updates: counters sum to %d, want %d", total, wantTotal.Load())
	}
	for _, k := range keys {
		if tbl.Locked(k) {
			t.Errorf("key %d still locked after all goroutines finished", k)
		}
	}
}

// TestDependentBlockingOrder models Kamino-Tx's hold-past-commit
// discipline on one object (the worst case: every waiter parks on the
// same condition variable). Each holder clears a "synced"
// flag on acquire and sets it again just before Unlock — the stand-in for
// the asynchronous backup sync finishing. A dependent transaction granted
// the lock early observes synced == false; a lost wakeup leaves waiters
// parked forever and hangs the test.
func TestDependentBlockingOrder(t *testing.T) {
	const (
		goroutines = 64
		itersEach  = 50
		obj        = uint64(42)
	)
	tbl := New()
	synced := true // guarded by the table's write lock on obj

	var wg sync.WaitGroup
	for g := 1; g <= goroutines; g++ {
		wg.Add(1)
		go func(owner Owner) {
			defer wg.Done()
			for i := 0; i < itersEach; i++ {
				tbl.Lock(obj, owner)
				if !synced {
					t.Errorf("owner %d granted the lock while the previous holder's sync was incomplete", owner)
				}
				synced = false
				runtime.Gosched() // widen the pending window
				synced = true
				tbl.Unlock(obj, owner)
			}
		}(Owner(g))
	}
	wg.Wait()
	if !synced || tbl.Locked(obj) {
		t.Error("table not quiescent after stress")
	}
}

// checkRecycling asserts, under the shard's mutex, the two halves of the
// recycling invariant: an entry in the map is held or waited for, and an
// entry on the free list is in nobody's map and carries nothing over — no
// writer, no reader (inline or mapped), no waiter.
func checkRecycling(t *testing.T, s *shard) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	mapped := make(map[*entry]uint64, len(s.m))
	for obj, e := range s.m {
		if e.idle() {
			t.Errorf("object %d maps to an idle entry", obj)
		}
		mapped[e] = obj
	}
	for e := s.free; e != nil; e = e.nextFree {
		if !e.idle() || e.rcount != 0 || e.writersWaiting != 0 {
			t.Errorf("free entry is not clean: %+v", *e)
		}
		if obj, ok := mapped[e]; ok {
			t.Errorf("free entry is still object %d's", obj)
		}
	}
}

// TestRecycledEntriesUnderContention parks and wakes goroutines on a few
// objects of a single bucket, so that every release that empties an entry
// recycles it into a neighbour's next lock while waiters sit on the shared
// condition variable. The counters are guarded only by the write locks (a
// recycled entry that remembered a holder, or forgot one, is a detector
// error under -race or a lost update without), readers overlap so that the
// second-reader map comes and goes, and a checker walks the bucket's map
// and free list throughout. A waiter whose entry was recycled under it
// hangs the test.
func TestRecycledEntriesUnderContention(t *testing.T) {
	const (
		goroutines = 24
		iters      = 400
		objects    = 3
	)
	tbl := New()
	keys := keysInBuckets(objects, 1)
	s := tbl.shard(keys[0])
	var counters [objects]int
	var want [objects]atomic.Int64
	var readSink atomic.Int64

	done := make(chan struct{})
	var checker sync.WaitGroup
	checker.Add(1)
	go func() {
		defer checker.Done()
		for {
			select {
			case <-done:
				return
			default:
				checkRecycling(t, s)
				runtime.Gosched()
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			owner := Owner(g + 1)
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				k := rng.Intn(objects)
				obj := keys[k]
				if i%3 == 0 {
					tbl.RLock(obj, owner)
					tbl.RLock(obj, owner) // reentrant: one more hold, same reader
					readSink.Add(int64(counters[k]))
					runtime.Gosched() // let a second reader in, and a writer queue up
					tbl.RUnlock(obj, owner)
					tbl.RUnlock(obj, owner)
					continue
				}
				tbl.Lock(obj, owner)
				counters[k]++
				want[k].Add(1)
				if i%8 == 1 {
					runtime.Gosched() // hold it long enough for others to park
				}
				tbl.Unlock(obj, owner)
			}
		}(g)
	}
	wg.Wait()
	close(done)
	checker.Wait()

	checkRecycling(t, s)
	for k := range counters {
		if int64(counters[k]) != want[k].Load() {
			t.Errorf("object %d: %d updates survived of %d", keys[k], counters[k], want[k].Load())
		}
	}
	if len(s.m) != 0 {
		t.Errorf("%d entries still mapped after every lock was released", len(s.m))
	}
	if s.free == nil {
		t.Error("no entry was recycled")
	}
}
