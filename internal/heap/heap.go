// Package heap implements a persistent object heap over a simulated NVM
// region, mirroring the object model of Intel NVML's libpmemobj that
// Kamino-Tx plugs into: applications allocate and free fixed-location
// persistent objects, identified by ObjIDs (region offsets) that double as
// persistent pointers between objects.
//
// Persistent state is deliberately minimal — five fields of heap header
// plus a 16-byte header in front of every block. Free lists are volatile
// and are rebuilt by scanning block headers at open, so no multi-word
// free-list surgery ever needs to be crash-consistent.
//
// Crash consistency of allocation itself is the transaction engine's job
// (the paper treats alloc/free as transactional metadata updates, as
// libpmemobj's TX_ZALLOC does). The heap therefore exposes a two-phase
// allocation protocol:
//
//	obj, _ := h.Reserve(size)   // volatile: pick a block, touch nothing persistent
//	...                         // engine logs the ALLOC intent durably
//	h.MarkAlloc(obj)            // volatile: header says allocated, payload zeroed
//	...                         // the transaction writes the object
//	                            // commit flushes header + payload with the rest of
//	                            // the write set, fences, then the commit marker
//
// The mark persists nothing: the commit that makes the transaction's stores
// durable makes the allocation durable with them, under the same fence. A
// caller outside any transaction uses CommitAlloc, which is the mark followed
// by its own persist of the whole block. If the machine crashes between the
// intent and the commit, recovery calls RollbackAlloc(obj, size), which
// (re)writes a free header — idempotent no matter how much of the block
// reached the device. Frees are deferred: the engine logs a FREE intent and
// calls ApplyFree(obj) only after the transaction commits.
package heap

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"kaminotx/internal/nvm"
)

// ObjID identifies a persistent object: the region offset of its payload.
// The zero ObjID is the nil persistent pointer.
type ObjID uint64

// Nil is the nil persistent pointer.
const Nil ObjID = 0

const (
	hdrMagic   = 0x4b484541 // "KHEA"
	hdrVersion = 2          // the layout with DataStart at 2048

	// BlockHeaderSize is the per-object header preceding every payload.
	BlockHeaderSize = 16

	blockAlign = 16

	// header field offsets
	offMagic = 0  // u32
	offVer   = 4  // u32
	offSize  = 8  // u64 region size at format time
	offBump  = 16 // u64 first never-allocated offset
	offRoot  = 24 // u64 root ObjID
	// Bytes 32..DataStart are reserved: Format zeroes them and Attach does
	// not read them (images written by earlier builds carry data there).

	// block header field offsets (relative to block start)
	bhSize  = 0 // u32 payload capacity (class size)
	bhState = 4 // u8
	// bytes 5..15 reserved

	stateFree  = 0
	stateAlloc = 1
)

// MaxAlloc is the largest supported single allocation.
const MaxAlloc = 16 << 20

// classes are the segregated payload size classes. Larger requests round up
// to a multiple of blockAlign and are served from the bump pointer with
// exact-size volatile free lists.
var classes = []int{16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024,
	1536, 2048, 3072, 4096, 6144, 8192, 12288, 16384, 24576, 32768, 49152, 65536}

// classFor returns the payload capacity for a requested size.
func classFor(size int) int {
	for _, c := range classes {
		if size <= c {
			return c
		}
	}
	return (size + blockAlign - 1) / blockAlign * blockAlign
}

// Heap is a persistent object heap bound to one NVM region.
//
// The volatile allocator state is one map of size-class free lists under
// one mutex; the bump pointer has a dedicated carve mutex. Freed blocks are
// always reused before the heap grows. Carves take a whole chunk of
// same-class blocks at once (one header line flushed per block, one fence
// for them all, one bump persist), amortizing the allocation fences that
// would otherwise serialize concurrent allocators on the carve mutex.
type Heap struct {
	reg *nvm.Region

	carveMu sync.Mutex    // serializes bump carves
	bump    atomic.Uint64 // volatile mirror of the persistent bump pointer

	mu   sync.Mutex
	free map[int][]ObjID // class -> LIFO free list
}

// Errors returned by heap operations.
var (
	ErrBadMagic    = errors.New("heap: region is not a formatted heap")
	ErrBadObject   = errors.New("heap: invalid object id")
	ErrHeapFull    = errors.New("heap: out of space")
	ErrSizeRange   = errors.New("heap: allocation size out of range")
	ErrCorruptScan = errors.New("heap: corrupt block header during rescan")
)

// Format initializes a fresh heap in reg, destroying any previous contents
// of the header area. The resulting heap is empty and durable.
func Format(reg *nvm.Region) (*Heap, error) {
	if reg.Size() < DataStart+BlockHeaderSize+blockAlign {
		return nil, fmt.Errorf("heap: region too small (%d bytes)", reg.Size())
	}
	if err := reg.Zero(0, DataStart); err != nil {
		return nil, err
	}
	if err := reg.Store32(offMagic, hdrMagic); err != nil {
		return nil, err
	}
	if err := reg.Store32(offVer, hdrVersion); err != nil {
		return nil, err
	}
	if err := reg.Store64(offSize, uint64(reg.Size())); err != nil {
		return nil, err
	}
	if err := reg.Store64(offBump, DataStart); err != nil {
		return nil, err
	}
	if err := reg.Store64(offRoot, 0); err != nil {
		return nil, err
	}
	if err := reg.Persist(0, DataStart); err != nil {
		return nil, err
	}
	h := &Heap{reg: reg, free: make(map[int][]ObjID)}
	h.bump.Store(DataStart)
	return h, nil
}

// Attach binds to an already formatted heap without scanning it. The caller
// must run transaction recovery (which may rewrite block headers) and then
// Rescan before allocating.
func Attach(reg *nvm.Region) (*Heap, error) {
	magic, err := reg.Load32(offMagic)
	if err != nil {
		return nil, err
	}
	if magic != hdrMagic {
		return nil, ErrBadMagic
	}
	ver, err := reg.Load32(offVer)
	if err != nil {
		return nil, err
	}
	if ver != hdrVersion {
		return nil, fmt.Errorf("heap: format version %d, this build reads %d", ver, hdrVersion)
	}
	size, err := reg.Load64(offSize)
	if err != nil {
		return nil, err
	}
	if size != uint64(reg.Size()) {
		return nil, fmt.Errorf("heap: region size %d does not match formatted size %d", reg.Size(), size)
	}
	bump, err := reg.Load64(offBump)
	if err != nil {
		return nil, err
	}
	h := &Heap{reg: reg, free: make(map[int][]ObjID)}
	h.bump.Store(bump)
	return h, nil
}

// Open attaches to a formatted heap and rebuilds the free lists. Use when
// no transaction recovery is required (or after it has run).
func Open(reg *nvm.Region) (*Heap, error) {
	h, err := Attach(reg)
	if err != nil {
		return nil, err
	}
	if err := h.Rescan(); err != nil {
		return nil, err
	}
	return h, nil
}

// Region returns the underlying NVM region. Engines use it for flushing and
// for copying block ranges between main and backup heaps.
func (h *Heap) Region() *nvm.Region { return h.reg }

func (h *Heap) loadState(blockOff int) (byte, error) {
	b, err := h.reg.ReadSlice(blockOff+bhState, 1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// carveChunkBytes targets how much contiguous space one bump carve
// formats. Carving several same-class blocks per carve amortizes the bump
// persist (flush + fence) that would otherwise be paid per allocation;
// the surplus blocks seed the class's free list.
const carveChunkBytes = 4096

// carveMaxBlocks bounds a chunk so small classes don't pre-format dozens
// of blocks a short-lived workload never uses.
const carveMaxBlocks = 8

// Reserve picks a block able to hold size payload bytes without touching
// persistent block state. A freed block of the class is reused first; only
// when the class's list is empty does it carve a chunk of fresh same-class
// blocks from the bump pointer (persisting the bump first; surplus chunk
// blocks go on the free list). Concurrent reservations never alias. Pair
// with MarkAlloc (inside a transaction), CommitAlloc or ReleaseReservation.
func (h *Heap) Reserve(size int) (ObjID, error) {
	if size <= 0 || size > MaxAlloc {
		return Nil, fmt.Errorf("%w: %d", ErrSizeRange, size)
	}
	cls := classFor(size)
	h.mu.Lock()
	if list := h.free[cls]; len(list) > 0 {
		obj := list[len(list)-1]
		h.free[cls] = list[:len(list)-1]
		h.mu.Unlock()
		return obj, nil
	}
	h.mu.Unlock()
	return h.carve(cls)
}

// carve formats a chunk of fresh same-class blocks at the bump pointer,
// returning the first and pushing the rest onto the class's free list.
// The chunk shrinks to whatever fits (down to one block) before the carve
// reports ErrHeapFull, so the heap's capacity is identical to a
// block-at-a-time allocator's.
func (h *Heap) carve(cls int) (ObjID, error) {
	need := uint64(BlockHeaderSize + cls)
	blocks := carveChunkBytes / int(need)
	if blocks > carveMaxBlocks {
		blocks = carveMaxBlocks
	}
	if blocks < 1 {
		blocks = 1
	}
	h.carveMu.Lock()
	defer h.carveMu.Unlock()
	bump := h.bump.Load()
	avail := uint64(h.reg.Size()) - bump
	if uint64(blocks)*need > avail {
		blocks = int(avail / need)
	}
	if blocks < 1 {
		return Nil, fmt.Errorf("%w: need %d bytes, %d available",
			ErrHeapFull, need, avail)
	}
	chunkOff := bump
	newBump := bump + uint64(blocks)*need
	// Write every block's class size now (stable across alloc/free cycles
	// and needed by Rescan); states remain free until an allocation marks
	// them. Only the headers are flushed — one line each; nobody has written
	// the payloads — and one fence makes them durable before the bump that
	// exposes them to Rescan: a durable bump over unformatted space is a
	// heap that cannot be rescanned.
	for b := 0; b < blocks; b++ {
		off := int(chunkOff + uint64(b)*need)
		if err := h.reg.Store32(off+bhSize, uint32(cls)); err != nil {
			return Nil, err
		}
		if err := h.reg.Write(off+bhState, []byte{stateFree}); err != nil {
			return Nil, err
		}
		if err := h.reg.Flush(off, BlockHeaderSize); err != nil {
			return Nil, err
		}
	}
	h.reg.Fence()
	// Persist the bump pointer before any block is handed out so that a
	// committed transaction can never reference space beyond the durable
	// bump (Rescan would not find it after a crash).
	if err := h.reg.Store64(offBump, newBump); err != nil {
		return Nil, err
	}
	if err := h.reg.Persist(offBump, 8); err != nil {
		return Nil, err
	}
	h.bump.Store(newBump)
	if blocks > 1 {
		h.mu.Lock()
		// Surplus pushed high-address-first so the next Reserve pops the
		// block adjacent to the one handed out.
		for b := blocks - 1; b >= 1; b-- {
			h.free[cls] = append(h.free[cls], ObjID(chunkOff+uint64(b)*need+BlockHeaderSize))
		}
		h.mu.Unlock()
	}
	return ObjID(chunkOff + BlockHeaderSize), nil
}

// ReleaseReservation returns a reserved-but-never-committed block to the
// volatile free list (e.g. when intent logging failed). Only Reserve hands
// out blocks, so the list cannot already hold it.
func (h *Heap) ReleaseReservation(obj ObjID) error {
	cls, err := h.ClassOf(obj)
	if err != nil {
		return err
	}
	h.mu.Lock()
	h.free[cls] = append(h.free[cls], obj)
	h.mu.Unlock()
	return nil
}

// MarkAlloc marks a reserved block allocated and zeroes its payload in the
// volatile view only, returning the block's payload class. Nothing is
// flushed: the caller — a transaction whose ALLOC intent is already durable
// — persists header and payload together with its other stores before its
// commit marker.
func (h *Heap) MarkAlloc(obj ObjID) (int, error) {
	cls, err := h.ClassOf(obj)
	if err != nil {
		return 0, err
	}
	if err := h.reg.Write(int(obj)-BlockHeaderSize+bhState, []byte{stateAlloc}); err != nil {
		return 0, err
	}
	if err := h.reg.Zero(int(obj), cls); err != nil {
		return 0, err
	}
	return cls, nil
}

// CommitAlloc marks a reserved block allocated and zeroes its payload,
// persisting both: MarkAlloc and the block's own persist, for a caller
// outside any transaction. A transactional caller must already have made
// the ALLOC intent durable.
func (h *Heap) CommitAlloc(obj ObjID) error {
	cls, err := h.MarkAlloc(obj)
	if err != nil {
		return err
	}
	return h.reg.Persist(int(obj)-BlockHeaderSize, BlockHeaderSize+cls)
}

// RollbackAlloc undoes an allocation after an abort or a crash: it rewrites
// a free block header for a block of the given payload class and returns
// the block to the volatile free list. Idempotent. The whole block is
// flushed with the header: an aborted transaction's mark and stores are
// never committed, and a line they dirtied may be shared with a neighbour
// whose own flush of it the store undid.
func (h *Heap) RollbackAlloc(obj ObjID, cls int) error {
	blockOff := int(obj) - BlockHeaderSize
	if blockOff < DataStart || uint64(int(obj)+cls) > h.bumpSnapshot() {
		return fmt.Errorf("%w: %d (class %d)", ErrBadObject, obj, cls)
	}
	if err := h.reg.Store32(blockOff+bhSize, uint32(cls)); err != nil {
		return err
	}
	if err := h.reg.Write(blockOff+bhState, []byte{stateFree}); err != nil {
		return err
	}
	if err := h.reg.Persist(blockOff, BlockHeaderSize+cls); err != nil {
		return err
	}
	h.pushFreeIfAbsent(cls, obj)
	return nil
}

// pushFreeIfAbsent adds obj to the free lists unless it is already on one,
// guarding RollbackAlloc/ApplyFree against double insertion when recovery
// retries. Both callers are rare (abort, recovery, committed frees), so the
// list scan is off any hot path.
func (h *Heap) pushFreeIfAbsent(cls int, obj ObjID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, o := range h.free[cls] {
		if o == obj {
			return
		}
	}
	h.free[cls] = append(h.free[cls], obj)
}

// ApplyFree marks an allocated block free and persists the header. Called
// by engines when a transaction that freed the object commits. Idempotent.
func (h *Heap) ApplyFree(obj ObjID) error {
	cls, err := h.ClassOf(obj)
	if err != nil {
		return err
	}
	blockOff := int(obj) - BlockHeaderSize
	if err := h.reg.Write(blockOff+bhState, []byte{stateFree}); err != nil {
		return err
	}
	if err := h.reg.Persist(blockOff, BlockHeaderSize); err != nil {
		return err
	}
	h.pushFreeIfAbsent(cls, obj)
	return nil
}

func (h *Heap) bumpSnapshot() uint64 { return h.bump.Load() }

// validate checks that obj points at a plausible block payload.
func (h *Heap) validate(obj ObjID) error {
	if obj < DataStart+BlockHeaderSize || uint64(obj) >= h.bumpSnapshot() {
		return fmt.Errorf("%w: %d", ErrBadObject, obj)
	}
	return nil
}

// ClassOf returns the payload capacity of obj's block.
func (h *Heap) ClassOf(obj ObjID) (int, error) {
	if err := h.validate(obj); err != nil {
		return 0, err
	}
	size, err := h.reg.Load32(int(obj) - BlockHeaderSize + bhSize)
	if err != nil {
		return 0, err
	}
	if size == 0 || size%blockAlign != 0 || int(size) > MaxAlloc {
		return 0, fmt.Errorf("%w: %d has class %d", ErrBadObject, obj, size)
	}
	return int(size), nil
}

// IsAllocated reports whether obj's block header says allocated.
func (h *Heap) IsAllocated(obj ObjID) (bool, error) {
	if err := h.validate(obj); err != nil {
		return false, err
	}
	state, err := h.loadState(int(obj) - BlockHeaderSize)
	if err != nil {
		return false, err
	}
	return state == stateAlloc, nil
}

// Range returns the region offset and length of obj's whole block,
// including its header. Engines copy this range between main and backup so
// that allocator state travels with object contents.
func (h *Heap) Range(obj ObjID) (off, n int, err error) {
	cls, err := h.ClassOf(obj)
	if err != nil {
		return 0, 0, err
	}
	return int(obj) - BlockHeaderSize, BlockHeaderSize + cls, nil
}

// Bytes returns the payload of obj as a slice aliasing the volatile view.
// Callers must not write through it; use Write.
func (h *Heap) Bytes(obj ObjID) ([]byte, error) {
	cls, err := h.ClassOf(obj)
	if err != nil {
		return nil, err
	}
	return h.reg.ReadSlice(int(obj), cls)
}

// Write stores data into obj's payload at the given payload offset. The
// write is volatile until the engine persists it at commit.
func (h *Heap) Write(obj ObjID, off int, data []byte) error {
	cls, err := h.ClassOf(obj)
	if err != nil {
		return err
	}
	if off < 0 || off+len(data) > cls {
		return fmt.Errorf("%w: write [%d,%d) in object of %d bytes",
			ErrOutOfObject, off, off+len(data), cls)
	}
	return h.reg.Write(int(obj)+off, data)
}

// ErrOutOfObject reports a payload access beyond the object's capacity.
var ErrOutOfObject = errors.New("heap: access beyond object bounds")

// Root returns the heap's root object pointer (Nil if unset).
func (h *Heap) Root() (ObjID, error) {
	v, err := h.reg.Load64(offRoot)
	return ObjID(v), err
}

// SetRoot durably stores the root object pointer. Typically called once at
// pool creation; an 8-byte store is failure-atomic.
func (h *Heap) SetRoot(obj ObjID) error {
	if obj != Nil {
		if err := h.validate(obj); err != nil {
			return err
		}
	}
	if err := h.reg.Store64(offRoot, uint64(obj)); err != nil {
		return err
	}
	return h.reg.Persist(offRoot, 8)
}

// FreeCount returns the number of free blocks of the given payload class.
// Test hook.
func (h *Heap) FreeCount(cls int) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.free[cls])
}

// Bump returns the current bump offset. Test hook.
func (h *Heap) Bump() uint64 { return h.bumpSnapshot() }

// DataStart is the offset of the first block in any heap. Every ObjID is an
// offset past it, so it is part of the image format.
const DataStart = 2048

// ClassForSize exposes the class rounding for tests and sizing tools.
func ClassForSize(size int) int { return classFor(size) }
