// Package locktable provides the volatile object-granularity read-write
// locks Kamino-Tx's Transaction Coordinator uses to isolate transactions
// (paper §3). Locks live only in DRAM: after a crash the write-intent
// records in the Log Manager are sufficient to rebuild the lock set, so
// nothing here is persisted.
//
// The defining behaviour for Kamino-Tx is that a write lock is held past
// commit, until the main and backup copies agree on the object ("pending
// objects"). A dependent transaction — one whose read- or write-set
// intersects a prior transaction's write-set — therefore blocks in Lock or
// RLock until the asynchronous backup sync releases the lock, which is
// exactly the Safety 1/2 barrier of the paper.
package locktable

import (
	"fmt"
	"runtime"
	"sync"
)

// DefaultShards is the bucket count used by New, and by every engine.
// NewSharded picks another; only tests do.
const DefaultShards = 64

// maxShards bounds NewSharded requests; beyond this the per-bucket maps
// cost more than the contention they avoid.
const maxShards = 4096

// Owner identifies a lock holder (a transaction id, or a synthetic id for
// recovery-held locks).
type Owner uint64

type entry struct {
	writer         Owner
	readers        map[Owner]int // reentrant read counts
	waiters        int
	writersWaiting int // writer preference: new readers hold off
}

type shard struct {
	mu   sync.Mutex
	cond *sync.Cond
	m    map[uint64]*entry
}

// Table is a striped object lock table: ObjIDs hash to one of 2^k buckets,
// each with its own mutex, condition variable and entry map, so lock
// traffic on disjoint objects never shares a mutex — and, as important
// under load, an Unlock's Broadcast wakes only the waiters parked on the
// same bucket rather than every blocked transaction in the system.
type Table struct {
	shards []shard
	shift  uint // index = hash >> shift; shift = 64 - log2(len(shards))
}

// New creates an empty lock table with DefaultShards buckets.
func New() *Table { return NewSharded(0) }

// NewSharded creates an empty lock table with n buckets, rounded up to a
// power of two and clamped to [1, 4096]. n <= 0 selects DefaultShards.
// Locking semantics are identical at every bucket count; n only tunes how
// much lock traffic shares a mutex and a wakeup broadcast.
func NewSharded(n int) *Table {
	n = normShards(n)
	t := &Table{shards: make([]shard, n), shift: shiftFor(n)}
	for i := range t.shards {
		s := &t.shards[i]
		s.m = make(map[uint64]*entry)
		s.cond = sync.NewCond(&s.mu)
	}
	return t
}

// normShards rounds n up to a power of two in [1, maxShards], defaulting
// when n <= 0.
func normShards(n int) int {
	if n <= 0 {
		n = DefaultShards
	}
	if n > maxShards {
		n = maxShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// shiftFor returns 64 - log2(n) for power-of-two n, so that hash >> shift
// is a top-bits bucket index (top bits of a Fibonacci hash are the
// well-mixed ones). For n == 1 the shift is 64, which Go defines to yield
// 0 — every object lands in the single bucket.
func shiftFor(n int) uint {
	s := uint(64)
	for n > 1 {
		n >>= 1
		s--
	}
	return s
}

// ShardCount reports the bucket count (test hook).
func (t *Table) ShardCount() int { return len(t.shards) }

func (t *Table) shard(obj uint64) *shard {
	return &t.shards[(obj*0x9e3779b97f4a7c15)>>t.shift]
}

func (s *shard) get(obj uint64) *entry {
	e := s.m[obj]
	if e == nil {
		e = &entry{readers: make(map[Owner]int)}
		s.m[obj] = e
	}
	return e
}

func (s *shard) maybeDelete(obj uint64, e *entry) {
	if e.writer == 0 && len(e.readers) == 0 && e.waiters == 0 {
		delete(s.m, obj)
	}
}

// Lock acquires the write lock on obj for owner, blocking while any other
// owner holds it (read or write). Reentrant: a second Lock by the same
// owner returns immediately. An owner holding only a read lock upgrades iff
// it is the sole reader; otherwise Lock waits for the other readers. Upon
// upgrade the owner's read holds are absorbed into the write lock (RUnlock
// while the write lock is held is a no-op, and Unlock releases everything),
// so the owner must release its reads no later than its write lock.
func (t *Table) Lock(obj uint64, owner Owner) {
	// Spin briefly before blocking: the common contended case is a
	// dependent transaction waiting out a sub-microsecond backup sync,
	// where a condition-variable park/unpark would dominate. The spin is
	// short on purpose — each Gosched hands the core through the whole run
	// queue, so a long spin on an oversubscribed host degenerates into
	// scheduler polling; past it, parking on the bucket's condition
	// variable is cheaper (and bucket striping keeps the wakeups
	// targeted).
	for spin := 0; spin < 4; spin++ {
		if t.TryLock(obj, owner) {
			return
		}
		runtime.Gosched()
	}
	s := t.shard(obj)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.get(obj)
	e.waiters++
	e.writersWaiting++
	for {
		if e.writer == owner {
			break
		}
		othersReading := len(e.readers) - btoi(e.readers[owner] > 0)
		if e.writer == 0 && othersReading == 0 {
			e.writer = owner
			delete(e.readers, owner) // absorb upgraded read holds
			break
		}
		s.cond.Wait()
		e = s.get(obj) // entry may have been deleted and recreated
	}
	e.writersWaiting--
	e.waiters--
}

// TryLock acquires the write lock without blocking, reporting success.
func (t *Table) TryLock(obj uint64, owner Owner) bool {
	s := t.shard(obj)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.get(obj)
	if e.writer == owner {
		return true
	}
	othersReading := len(e.readers) - btoi(e.readers[owner] > 0)
	if e.writer == 0 && othersReading == 0 {
		e.writer = owner
		delete(e.readers, owner) // absorb upgraded read holds
		return true
	}
	s.maybeDelete(obj, e)
	return false
}

// Unlock releases owner's write lock on obj and wakes waiters. It panics if
// owner does not hold the write lock: that is always an engine bug, and
// silently continuing would corrupt isolation.
func (t *Table) Unlock(obj uint64, owner Owner) {
	s := t.shard(obj)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.m[obj]
	if e == nil || e.writer != owner {
		panic(fmt.Sprintf("locktable: Unlock(%d) by %d which does not hold the write lock", obj, owner))
	}
	e.writer = 0
	s.maybeDelete(obj, e)
	s.cond.Broadcast()
}

// RLock acquires a read lock on obj for owner, blocking while another owner
// holds the write lock (including the post-commit pending window).
// Reentrant, and a no-op if owner already holds the write lock. Writers are
// preferred: a fresh reader also waits while writers are queued, so a
// stream of readers cannot starve a writer (re-entrant reads are exempt to
// avoid self-deadlock).
func (t *Table) RLock(obj uint64, owner Owner) {
	s := t.shard(obj)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.get(obj)
	e.waiters++
	for {
		if e.writer == owner {
			break
		}
		if e.writer == 0 && (e.writersWaiting == 0 || e.readers[owner] > 0) {
			e.readers[owner]++
			break
		}
		s.cond.Wait()
		e = s.get(obj)
	}
	e.waiters--
}

// RUnlock releases one read hold by owner.
func (t *Table) RUnlock(obj uint64, owner Owner) {
	s := t.shard(obj)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.m[obj]
	if e == nil {
		panic(fmt.Sprintf("locktable: RUnlock(%d) by %d with no lock entry", obj, owner))
	}
	if e.writer == owner {
		// Read was satisfied by the write lock; nothing to release.
		return
	}
	if e.readers[owner] == 0 {
		panic(fmt.Sprintf("locktable: RUnlock(%d) by %d which holds no read lock", obj, owner))
	}
	e.readers[owner]--
	if e.readers[owner] == 0 {
		delete(e.readers, owner)
	}
	s.maybeDelete(obj, e)
	s.cond.Broadcast()
}

// HeldBy reports the current write-lock owner of obj (0 if none).
func (t *Table) HeldBy(obj uint64) Owner {
	s := t.shard(obj)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.m[obj]; e != nil {
		return e.writer
	}
	return 0
}

// Locked reports whether obj is write-locked by anyone. Used by
// Kamino-Tx-Dynamic to pin pending objects against LRU eviction.
func (t *Table) Locked(obj uint64) bool { return t.HeldBy(obj) != 0 }

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
