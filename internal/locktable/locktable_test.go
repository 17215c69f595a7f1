package locktable

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kaminotx/internal/race"
)

func TestLockUnlock(t *testing.T) {
	tab := New()
	tab.Lock(1, 10)
	if got := tab.HeldBy(1); got != 10 {
		t.Errorf("HeldBy = %d, want 10", got)
	}
	tab.Unlock(1, 10)
	if got := tab.HeldBy(1); got != 0 {
		t.Errorf("HeldBy after unlock = %d", got)
	}
}

func TestLockReentrant(t *testing.T) {
	tab := New()
	tab.Lock(1, 10)
	done := make(chan struct{})
	go func() {
		tab.Lock(1, 10) // same owner: must not block
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("reentrant Lock blocked")
	}
	tab.Unlock(1, 10)
}

func TestLockBlocksOtherOwner(t *testing.T) {
	tab := New()
	tab.Lock(1, 10)
	acquired := make(chan struct{})
	go func() {
		tab.Lock(1, 20)
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("second owner acquired a held lock")
	case <-time.After(20 * time.Millisecond):
	}
	tab.Unlock(1, 10)
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("waiter never woke after unlock")
	}
	tab.Unlock(1, 20)
}

func TestTryLock(t *testing.T) {
	tab := New()
	if !tab.TryLock(1, 10) {
		t.Fatal("TryLock on free object failed")
	}
	if tab.TryLock(1, 20) {
		t.Fatal("TryLock on held object succeeded")
	}
	if !tab.TryLock(1, 10) {
		t.Fatal("reentrant TryLock failed")
	}
	tab.Unlock(1, 10)
	if !tab.TryLock(1, 20) {
		t.Fatal("TryLock after release failed")
	}
	tab.Unlock(1, 20)
}

func TestReadersShareWritersExclude(t *testing.T) {
	tab := New()
	tab.RLock(1, 10)
	tab.RLock(1, 20) // concurrent readers OK

	acquired := make(chan struct{})
	go func() {
		tab.Lock(1, 30)
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("writer acquired with readers present")
	case <-time.After(20 * time.Millisecond):
	}
	tab.RUnlock(1, 10)
	tab.RUnlock(1, 20)
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("writer never acquired after readers left")
	}

	// Readers block while the writer holds.
	readDone := make(chan struct{})
	go func() {
		tab.RLock(1, 40)
		close(readDone)
	}()
	select {
	case <-readDone:
		t.Fatal("reader acquired while write-locked")
	case <-time.After(20 * time.Millisecond):
	}
	tab.Unlock(1, 30)
	<-readDone
	tab.RUnlock(1, 40)
}

func TestReadUnderOwnWriteLock(t *testing.T) {
	tab := New()
	tab.Lock(1, 10)
	done := make(chan struct{})
	go func() {
		tab.RLock(1, 10) // read-your-writes: no block
		tab.RUnlock(1, 10)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("own-read under write lock blocked")
	}
	tab.Unlock(1, 10)
}

func TestUpgradeSoleReader(t *testing.T) {
	tab := New()
	tab.RLock(1, 10)
	done := make(chan struct{})
	go func() {
		tab.Lock(1, 10) // sole reader upgrades
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("sole-reader upgrade blocked")
	}
	tab.Unlock(1, 10)
}

// Regression: a read lock upgraded to a write lock must be absorbed; after
// the writer unlocks, no stale read hold may block the next writer.
func TestUpgradeAbsorbsReadHold(t *testing.T) {
	tab := New()
	tab.RLock(1, 10)
	tab.Lock(1, 10) // upgrade
	// RUnlock while holding the write lock is a no-op (subsumed).
	tab.RUnlock(1, 10)
	tab.Unlock(1, 10)
	// A different owner must be able to write-lock immediately.
	if !tab.TryLock(1, 20) {
		t.Fatal("stale read hold survived upgrade + unlock")
	}
	tab.Unlock(1, 20)
}

func TestUpgradeAbsorbViaTryLock(t *testing.T) {
	tab := New()
	tab.RLock(1, 10)
	if !tab.TryLock(1, 10) {
		t.Fatal("sole-reader TryLock upgrade failed")
	}
	tab.RUnlock(1, 10)
	tab.Unlock(1, 10)
	if !tab.TryLock(1, 20) {
		t.Fatal("stale read hold survived TryLock upgrade")
	}
	tab.Unlock(1, 20)
}

func TestUnlockWithoutHoldPanics(t *testing.T) {
	tab := New()
	defer func() {
		if recover() == nil {
			t.Error("Unlock without hold did not panic")
		}
	}()
	tab.Unlock(1, 10)
}

func TestRUnlockWithoutHoldPanics(t *testing.T) {
	tab := New()
	tab.RLock(1, 10)
	defer func() {
		if recover() == nil {
			t.Error("RUnlock by non-reader did not panic")
		}
	}()
	tab.RUnlock(1, 20)
}

func TestManyObjectsConcurrent(t *testing.T) {
	tab := New()
	const goroutines = 16
	const objects = 100
	counters := make([]int64, objects)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(owner Owner) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				obj := uint64(i % objects)
				tab.Lock(obj, owner)
				// Critical section: only one owner at a time.
				v := atomic.AddInt64(&counters[obj], 1)
				if v != 1 {
					t.Errorf("mutual exclusion violated on obj %d", obj)
				}
				atomic.AddInt64(&counters[obj], -1)
				tab.Unlock(obj, owner)
			}
		}(Owner(g + 1))
	}
	wg.Wait()
}

// Locks released by a different goroutine than the acquirer (the async
// backup applier pattern).
func TestCrossGoroutineRelease(t *testing.T) {
	tab := New()
	tab.Lock(1, 10)
	released := make(chan struct{})
	go func() {
		time.Sleep(10 * time.Millisecond)
		tab.Unlock(1, 10) // applier releases on behalf of tx 10
		close(released)
	}()
	tab.Lock(1, 20) // dependent transaction blocks until applier syncs
	<-released
	tab.Unlock(1, 20)
}

// keysInBuckets returns n keys, n/buckets (rounded up) hashing to each of
// the table's first buckets buckets, so that locks on them share mutexes,
// condition variables and entry free lists.
func keysInBuckets(n, buckets int) []uint64 {
	per := make([]int, buckets)
	var keys []uint64
	for k := uint64(0); len(keys) < n; k++ {
		if b := bucket(k); b < buckets && per[b] < (n+buckets-1)/buckets {
			per[b]++
			keys = append(keys, k)
		}
	}
	return keys
}

func TestEntriesGarbageCollected(t *testing.T) {
	tab := New()
	for i := uint64(0); i < 1000; i++ {
		tab.Lock(i, 1)
		tab.Unlock(i, 1)
	}
	total := 0
	for i := range tab.shards {
		tab.shards[i].mu.Lock()
		total += len(tab.shards[i].m)
		tab.shards[i].mu.Unlock()
	}
	if total != 0 {
		t.Errorf("%d lock entries leaked", total)
	}
}

// TestEntryRecycledClean walks one entry through every kind of hold — two
// overlapping readers (the second makes the map), a reentrant read, an
// upgrade, a plain write — and checks that the next object to use it finds
// none of it.
func TestEntryRecycledClean(t *testing.T) {
	tbl := New()
	keys := keysInBuckets(2, 1) // the two objects share a bucket, and so its free list
	o1, o2 := keys[0], keys[1]
	s := tbl.shard(o1)

	tbl.RLock(o1, 10)
	first := s.m[o1]
	if first.reader != 10 || first.readers != nil {
		t.Fatalf("a lone reader is not held inline: %+v", *first)
	}
	tbl.RLock(o1, 10)
	tbl.RLock(o1, 11)
	if first.rcount != 2 || first.readers[11] != 1 {
		t.Fatalf("two readers, one reentrant: %+v", *first)
	}
	tbl.RUnlock(o1, 10)
	tbl.RUnlock(o1, 10)
	tbl.Lock(o1, 11) // sole reader left: upgrades, absorbing its read hold
	tbl.RUnlock(o1, 11)
	tbl.Unlock(o1, 11)
	if len(s.m) != 0 || s.free != first {
		t.Fatalf("released entry not on the free list (map has %d)", len(s.m))
	}

	tbl.Lock(o2, 12)
	e := s.m[o2]
	if e != first {
		t.Fatal("object 2 did not get the recycled entry")
	}
	if e.writer != 12 || e.reader != 0 || e.rcount != 0 || len(e.readers) != 0 || e.waiters != 0 || e.writersWaiting != 0 || e.nextFree != nil {
		t.Fatalf("recycled entry carried state over: %+v", *e)
	}
	if tbl.HeldBy(o1) != 0 {
		t.Fatal("object 1 reads as held through the entry it gave up")
	}
	tbl.Unlock(o2, 12)
}

// TestUncontendedLockingAllocatesNothing pins the steady state: an entry
// comes off its bucket's free list and goes back, and a lone reader needs no
// map, so a lock/unlock or rlock/runlock pair of an object nobody else
// wants touches the Go heap not at all.
func TestUncontendedLockingAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("testing.AllocsPerRun is meaningless under the race detector")
	}
	tbl := New()
	obj := uint64(0)
	pair := func(lock, unlock func(uint64, Owner)) func() {
		return func() {
			obj++
			lock(obj, 1)
			lock(obj+1000, 1) // a transaction holds more than one
			unlock(obj+1000, 1)
			unlock(obj, 1)
		}
	}
	for name, f := range map[string]func(){
		"Lock+Unlock":   pair(tbl.Lock, tbl.Unlock),
		"RLock+RUnlock": pair(tbl.RLock, tbl.RUnlock),
	} {
		for i := 0; i < 4*len(tbl.shards); i++ {
			f() // every bucket has allocated the entries it will reuse
		}
		if n := testing.AllocsPerRun(1000, f); n != 0 {
			t.Errorf("%s of an uncontended object allocates %.0f times", name, n)
		}
	}
}

// BenchmarkLockUnlock is the gated ladder's locktable.lock_unlock_ns in the
// repository: one uncontended write lock taken and released, objects
// rotating over the buckets.
func BenchmarkLockUnlock(b *testing.B) {
	tbl := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Lock(uint64(i), 1)
		tbl.Unlock(uint64(i), 1)
	}
}

// BenchmarkRLockRUnlock is the same for a lone reader.
func BenchmarkRLockRUnlock(b *testing.B) {
	tbl := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.RLock(uint64(i), 1)
		tbl.RUnlock(uint64(i), 1)
	}
}
