package kamino

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"kaminotx/internal/engine"
	"kaminotx/internal/heap"
	"kaminotx/internal/locktable"
	"kaminotx/internal/nvm"
	"kaminotx/internal/obs"
)

// backend abstracts the backup copy of the heap. The simple backend mirrors
// the whole heap at identical offsets (paper §3, Kamino-Tx-Simple); the
// dynamic backend keeps copies of only the most frequently modified objects
// in an α-sized region (paper §4, Kamino-Tx-Dynamic).
//
// All methods identify an object by its main-heap ObjID and payload class;
// the class comes from the intent-log entry during recovery so no torn
// main-heap header is ever trusted.
type backend interface {
	// ensure guarantees a durable, in-sync backup copy of obj exists
	// before the object may be modified in place. Called with obj's
	// write lock held. The dynamic backend copies on demand here (a
	// backup miss — the only critical-path copy Kamino-Tx ever does);
	// copied reports that such an on-demand copy was made.
	ensure(obj heap.ObjID, class int) (copied bool, err error)

	// syncToBackup copies what the transaction stored into obj's
	// main-heap block to the backup and persists it; an empty extent
	// (added, never written) costs nothing. The applier, off the critical
	// path, passes the transaction's extent; recovery of committed
	// transactions passes the whole block — the log records objects, not
	// bytes. path decides the counter the bytes go to.
	syncToBackup(obj heap.ObjID, dirty engine.Extent, path copyPath) error

	// restoreFromBackup copies the backup copy over obj's main-heap
	// block and persists it. Used by aborts and crash recovery.
	restoreFromBackup(obj heap.ObjID, class int) error
}

// copyPath is the path a backup copy is made on, which decides the counter
// its bytes go to. Only the applier and recovery copy off a commit's
// critical path, and they pass offPath; every other copy counts as critical
// (onPath, the zero value), so a sync moved onto the critical path shows in
// bytes_copied_critical whoever makes it.
type copyPath int

const (
	onPath copyPath = iota
	offPath
)

// copyCounters count backup-copy bytes by the path they were copied on.
type copyCounters struct{ critical, async *obs.Counter }

func newCopyCounters(o *obs.Registry) copyCounters {
	return copyCounters{o.Counter("bytes_copied_critical"), o.Counter("bytes_copied_async")}
}

func (c copyCounters) add(path copyPath, n int) {
	if path == offPath {
		c.async.Add(uint64(n))
	} else {
		c.critical.Add(uint64(n))
	}
}

// ---------------------------------------------------------------------------
// Simple backend: full mirror.

type simpleBackend struct {
	main   *nvm.Region
	backup *nvm.Region
	copied copyCounters
}

func newSimpleBackend(main, backup *nvm.Region, o *obs.Registry) (*simpleBackend, error) {
	if backup.Size() < main.Size() {
		return nil, fmt.Errorf("kamino: full backup region (%d bytes) smaller than main (%d bytes)",
			backup.Size(), main.Size())
	}
	return &simpleBackend{main: main, backup: backup, copied: newCopyCounters(o)}, nil
}

func (b *simpleBackend) ensure(heap.ObjID, int) (bool, error) { return false, nil }

// syncToBackup copies each run of lines the transaction stored into and
// flushes it, then fences once for the object. Bytes between the runs were
// not stored into, and the object's lock has kept them equal on both sides.
func (b *simpleBackend) syncToBackup(obj heap.ObjID, dirty engine.Extent, path copyPath) error {
	total := 0
	err := dirty.Runs(obj, func(off, n int) error {
		if err := nvm.Copy(b.backup, off, b.main, off, n); err != nil {
			return err
		}
		total += n
		return b.backup.Flush(off, n)
	})
	if err != nil || total == 0 {
		return err
	}
	b.backup.Fence()
	b.copied.add(path, total)
	return nil
}

func (b *simpleBackend) restoreFromBackup(obj heap.ObjID, class int) error {
	off := int(obj) - heap.BlockHeaderSize
	n := heap.BlockHeaderSize + class
	if err := nvm.Copy(b.main, off, b.backup, off, n); err != nil {
		return err
	}
	return b.main.Persist(off, n)
}

// ---------------------------------------------------------------------------
// Dynamic backend: partial backup with a persistent lookup structure and a
// volatile LRU (paper §4, §6.4).
//
// The backup region is itself a persistent heap whose blocks hold
// [mainObj u64][copyLen u32][pad u32][main block bytes]. The block headers
// are the persistent object→copy mapping (the paper's persistent hash
// table): after a crash the map is rebuilt by scanning them. The in-DRAM
// hash map plus LRU list is a cache over that persistent state.

const dynPrefix = 16 // mainObj + copyLen + pad

type dynEntry struct {
	backupObj heap.ObjID // payload ObjID within the backup heap
	blockLen  int        // bytes of main block mirrored
	lruElem   *list.Element
}

type dynamicBackend struct {
	main    *nvm.Region
	bheap   *heap.Heap
	locks   *locktable.Table // pending/locked objects are pinned
	mu      sync.Mutex
	entries map[heap.ObjID]*dynEntry
	lru     *list.List // front = most recently used; values are main ObjIDs

	copied     copyCounters // a miss copies one block on the critical path
	misses     *obs.Counter
	evictions  *obs.Counter
	phMissCopy *obs.PhaseStat // on-demand backup copy (critical path)
}

func newDynamicBackend(main *nvm.Region, bheap *heap.Heap, locks *locktable.Table, o *obs.Registry) *dynamicBackend {
	b := &dynamicBackend{
		main:       main,
		bheap:      bheap,
		locks:      locks,
		entries:    make(map[heap.ObjID]*dynEntry),
		lru:        list.New(),
		copied:     newCopyCounters(o),
		misses:     o.Counter("backup_misses"),
		evictions:  o.Counter("backup_evictions"),
		phMissCopy: o.Phase(obs.PhaseCriticalCopy),
	}
	// Live occupancy of the α-sized backup: copies resident right now.
	o.Gauge("backup_resident_copies", func() uint64 { return uint64(b.size()) })
	return b
}

// rebuild scans the backup heap and reconstructs the volatile map after a
// crash or reopen. Blocks whose prefix was never persisted (mainObj == 0)
// are freed.
func (b *dynamicBackend) rebuild() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.entries = make(map[heap.ObjID]*dynEntry)
	b.lru.Init()
	reg := b.bheap.Region()
	off := uint64(heap.DataStart)
	for off < b.bheap.Bump() {
		payload := heap.ObjID(off + heap.BlockHeaderSize)
		cls, err := b.bheap.ClassOf(payload)
		if err != nil {
			return fmt.Errorf("kamino: backup scan: %w", err)
		}
		alloc, err := b.bheap.IsAllocated(payload)
		if err != nil {
			return err
		}
		if alloc {
			pfx, err := reg.ReadSlice(int(payload), dynPrefix)
			if err != nil {
				return err
			}
			mainObj := heap.ObjID(binary.LittleEndian.Uint64(pfx))
			copyLen := int(binary.LittleEndian.Uint32(pfx[8:]))
			if mainObj == heap.Nil || copyLen <= 0 || copyLen > cls-dynPrefix {
				// Torn mid-creation: reclaim.
				if err := b.bheap.ApplyFree(payload); err != nil {
					return err
				}
			} else {
				e := &dynEntry{backupObj: payload, blockLen: copyLen}
				e.lruElem = b.lru.PushBack(mainObj)
				b.entries[mainObj] = e
			}
		}
		off += heap.BlockHeaderSize + uint64(cls)
	}
	return nil
}

func (b *dynamicBackend) ensure(obj heap.ObjID, class int) (bool, error) {
	blockLen := heap.BlockHeaderSize + class
	b.mu.Lock()
	if e, ok := b.entries[obj]; ok {
		b.lru.MoveToFront(e.lruElem)
		b.mu.Unlock()
		return false, nil
	}
	b.mu.Unlock()

	// Miss: create the copy on demand — the critical-path copy that
	// makes α < 1 a latency/storage trade-off.
	b.misses.Add(1)
	b.copied.add(onPath, blockLen)
	missStart := time.Now()
	defer func() { b.phMissCopy.Observe(time.Since(missStart)) }()
	backupObj, err := b.allocBlock(dynPrefix + blockLen)
	if err != nil {
		return false, err
	}
	breg := b.bheap.Region()
	// The copy is fenced before the prefix that makes rebuild trust it: one
	// fence for both would let a crash keep the prefix over a torn copy.
	if err := nvm.Copy(breg, int(backupObj)+dynPrefix, b.main, int(obj)-heap.BlockHeaderSize, blockLen); err != nil {
		return false, err
	}
	if err := breg.Persist(int(backupObj)+dynPrefix, blockLen); err != nil {
		return false, err
	}
	var pfx [dynPrefix]byte
	binary.LittleEndian.PutUint64(pfx[:], uint64(obj))
	binary.LittleEndian.PutUint32(pfx[8:], uint32(blockLen))
	if err := breg.Write(int(backupObj), pfx[:]); err != nil {
		return false, err
	}
	if err := breg.Persist(int(backupObj), dynPrefix); err != nil {
		return false, err
	}
	b.mu.Lock()
	e := &dynEntry{backupObj: backupObj, blockLen: blockLen}
	e.lruElem = b.lru.PushFront(obj)
	b.entries[obj] = e
	b.mu.Unlock()
	return true, nil
}

// allocBlock allocates backup space, evicting least-recently-updated
// unpinned copies as needed.
func (b *dynamicBackend) allocBlock(size int) (heap.ObjID, error) {
	for {
		obj, err := b.bheap.Reserve(size)
		if err == nil {
			if err := b.bheap.CommitAlloc(obj); err != nil {
				return heap.Nil, err
			}
			return obj, nil
		}
		if !errors.Is(err, heap.ErrHeapFull) {
			return heap.Nil, err
		}
		if evErr := b.evictOne(); evErr != nil {
			return heap.Nil, evErr
		}
	}
}

// evictOne removes the least recently used copy whose main object is not
// locked (pending or in a live write set — those must never lose their
// copy, paper §6.4).
func (b *dynamicBackend) evictOne() error {
	b.mu.Lock()
	var victim heap.ObjID
	var ve *dynEntry
	for el := b.lru.Back(); el != nil; el = el.Prev() {
		obj := el.Value.(heap.ObjID)
		if !b.locks.Locked(uint64(obj)) {
			victim, ve = obj, b.entries[obj]
			break
		}
	}
	if ve == nil {
		b.mu.Unlock()
		return engine.ErrBackupFull
	}
	b.lru.Remove(ve.lruElem)
	delete(b.entries, victim)
	b.mu.Unlock()
	b.evictions.Add(1)
	// Freeing persists the backup block header; the rebuild scan then
	// skips it, so the persistent map stays consistent with eviction.
	return b.bheap.ApplyFree(ve.backupObj)
}

func (b *dynamicBackend) lookup(obj heap.ObjID) (*dynEntry, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.entries[obj]
	return e, ok
}

// syncToBackup copies the extent's covering range — a superset of the lines
// stored into, equal to them for a single store — with one persist.
func (b *dynamicBackend) syncToBackup(obj heap.ObjID, dirty engine.Extent, path copyPath) error {
	off, n := dirty.Range(obj)
	if n == 0 {
		return nil
	}
	e, ok := b.lookup(obj)
	if !ok {
		// No copy (object allocated this transaction and never since
		// modified, or freed after eviction): nothing to sync — a
		// future write will create the copy on demand.
		return nil
	}
	if dirty.Hi > e.blockLen {
		return fmt.Errorf("kamino: backup copy of %d is %d bytes, need %d", obj, e.blockLen, dirty.Hi)
	}
	breg := b.bheap.Region()
	boff := int(e.backupObj) + dynPrefix + dirty.Lo
	if err := nvm.Copy(breg, boff, b.main, off, n); err != nil {
		return err
	}
	if err := breg.Persist(boff, n); err != nil {
		return err
	}
	b.copied.add(path, n)
	return nil
}

func (b *dynamicBackend) restoreFromBackup(obj heap.ObjID, class int) error {
	e, ok := b.lookup(obj)
	if !ok {
		return fmt.Errorf("kamino: no backup copy to restore object %d (invariant violation)", obj)
	}
	n := heap.BlockHeaderSize + class
	if n > e.blockLen {
		return fmt.Errorf("kamino: backup copy of %d is %d bytes, need %d", obj, e.blockLen, n)
	}
	if err := nvm.Copy(b.main, int(obj)-heap.BlockHeaderSize, b.bheap.Region(), int(e.backupObj)+dynPrefix, n); err != nil {
		return err
	}
	return b.main.Persist(int(obj)-heap.BlockHeaderSize, n)
}

// size returns the number of live backup copies (tests and the
// backup_resident_copies gauge).
func (b *dynamicBackend) size() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.entries)
}
