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

// bucketBits is log2 of the table's bucket count: 64 buckets, indexed by
// the top bits of a Fibonacci hash of the ObjID (the well-mixed ones).
const bucketBits = 6

// Owner identifies a lock holder (a transaction id, or a synthetic id for
// recovery-held locks).
type Owner uint64

// entry is the lock state of one object. It exists only while the object is
// held or waited for: the last release takes it out of its shard's map and
// puts it on the shard's free list, where the next lock of any object in
// the shard finds it, so steady-state locking allocates nothing. A lone
// reader — every read lock of an uncontended transaction — is held inline;
// the map appears with the second concurrent reader and stays with the
// entry, empty, through recycling.
type entry struct {
	writer         Owner
	reader         Owner         // the inline reader, 0 when none
	rcount         int           // its reentrant read count
	readers        map[Owner]int // reentrant read counts of the readers beside it
	waiters        int
	writersWaiting int    // writer preference: new readers hold off
	nextFree       *entry // free-list link
}

// reads returns owner's reentrant read count.
func (e *entry) reads(owner Owner) int {
	if e.reader == owner {
		return e.rcount
	}
	return e.readers[owner]
}

// otherReaders counts the readers that are not owner.
func (e *entry) otherReaders(owner Owner) int {
	n := len(e.readers)
	if e.reader != 0 {
		n++
	}
	return n - btoi(e.reads(owner) > 0)
}

// idle reports whether nobody holds or waits for the entry.
func (e *entry) idle() bool {
	return e.writer == 0 && e.reader == 0 && len(e.readers) == 0 && e.waiters == 0
}

func (e *entry) addRead(owner Owner) {
	switch {
	case e.reader == owner:
		e.rcount++
	case e.readers[owner] > 0:
		e.readers[owner]++
	case e.reader == 0:
		e.reader, e.rcount = owner, 1
	default:
		if e.readers == nil {
			e.readers = make(map[Owner]int)
		}
		e.readers[owner] = 1
	}
}

// dropRead releases one of owner's read holds, all of them with all set
// (an upgrade: the write lock absorbs them).
func (e *entry) dropRead(owner Owner, all bool) {
	if e.reader == owner {
		if e.rcount--; all || e.rcount == 0 {
			e.reader, e.rcount = 0, 0
		}
		return
	}
	if n := e.readers[owner]; all || n <= 1 {
		delete(e.readers, owner)
	} else {
		e.readers[owner] = n - 1
	}
}

type shard struct {
	mu   sync.Mutex
	cond *sync.Cond
	m    map[uint64]*entry
	free *entry // idle entries, ready for reuse

	rlocks uint64 // RLock calls, for RLockCalls
}

// Table is a striped object lock table: ObjIDs hash to one of 64 buckets,
// each with its own mutex, condition variable and entry map, so lock
// traffic on disjoint objects rarely shares a mutex — and, as important
// under load, an Unlock's Broadcast wakes only the waiters parked on the
// same bucket rather than every blocked transaction in the system.
type Table struct {
	shards [1 << bucketBits]shard
}

// New creates an empty lock table.
func New() *Table {
	t := &Table{}
	for i := range t.shards {
		s := &t.shards[i]
		s.m = make(map[uint64]*entry)
		s.cond = sync.NewCond(&s.mu)
	}
	return t
}

// bucket returns the index of obj's bucket.
func bucket(obj uint64) int { return int((obj * 0x9e3779b97f4a7c15) >> (64 - bucketBits)) }

// RLockCalls reports how many times RLock has been called (test hook: a
// structure pins how many read locks one of its operations takes).
func (t *Table) RLockCalls() uint64 {
	var n uint64
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += s.rlocks
		s.mu.Unlock()
	}
	return n
}

func (t *Table) shard(obj uint64) *shard {
	return &t.shards[bucket(obj)]
}

func (s *shard) get(obj uint64) *entry {
	e := s.m[obj]
	if e == nil {
		if e = s.free; e != nil {
			s.free, e.nextFree = e.nextFree, nil
		} else {
			e = &entry{}
		}
		s.m[obj] = e
	}
	return e
}

// maybeDelete recycles an entry nobody holds or waits for. A waiter pins
// its entry (waiters is raised before the first Wait and dropped after the
// last), so a parked goroutine always wakes to the entry it parked on.
func (s *shard) maybeDelete(obj uint64, e *entry) {
	if e.idle() {
		delete(s.m, obj)
		e.nextFree, s.free = s.free, e
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
		if e.writer == 0 && e.otherReaders(owner) == 0 {
			e.writer = owner
			e.dropRead(owner, true) // absorb upgraded read holds
			break
		}
		s.cond.Wait()
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
	if e.writer == 0 && e.otherReaders(owner) == 0 {
		e.writer = owner
		e.dropRead(owner, true) // absorb upgraded read holds
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
	s.rlocks++
	e := s.get(obj)
	e.waiters++
	for {
		if e.writer == owner {
			break
		}
		if e.writer == 0 && (e.writersWaiting == 0 || e.reads(owner) > 0) {
			e.addRead(owner)
			break
		}
		s.cond.Wait()
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
	if e.reads(owner) == 0 {
		panic(fmt.Sprintf("locktable: RUnlock(%d) by %d which holds no read lock", obj, owner))
	}
	e.dropRead(owner, false)
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
