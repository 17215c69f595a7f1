// Package inplace implements the engine used by non-head replicas of
// Kamino-Tx-Chain (paper §5): objects are modified in place with a durable
// intent log but no local copies of any kind — no undo data, no backup
// heap. The per-replica storage saving is the point of the f+2 chain
// design: the chain's neighbours are the copies.
//
// Consequences:
//
//   - Abort is not supported: only transactions already committed by the
//     head are admitted to a replica, so the abort path cannot be reached
//     in correct operation.
//   - Crash recovery cannot complete locally. Recover finishes committed
//     transactions (re-applying their deferred frees), but incomplete
//     transactions are surfaced via PendingRecovery so the chain layer can
//     roll them forward from the predecessor or back from the successor
//     (paper §5.3), installing fetched object images via ResolvePending.
package inplace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"kaminotx/internal/engine"
	"kaminotx/internal/heap"
	"kaminotx/internal/intentlog"
	"kaminotx/internal/locktable"
	"kaminotx/internal/nvm"
	"kaminotx/internal/obs"
	"kaminotx/internal/recovery"
	"kaminotx/internal/trace"
)

// ErrAbortUnsupported reports an Abort on an in-place replica engine.
var ErrAbortUnsupported = errors.New("inplace: abort requires a copy; only the chain head may abort")

// Engine is the in-place chain-replica engine.
type Engine struct {
	heap  *heap.Heap
	log   *intentlog.Log
	locks *locktable.Table
	obs   *obs.Registry

	recov []recovery.StageReport // stage timings of the Open that built us
	tr    atomic.Pointer[trace.Tracer]

	pending []PendingTx // incomplete transactions found at Open

	commits  *obs.Counter
	depWaits *obs.Counter

	phStall  *obs.PhaseStat // dependent-lock acquisition time
	phIntent *obs.PhaseStat // intent-log append persist
	phHeap   *obs.PhaseStat // in-place heap flush+fence at commit
	phMarker *obs.PhaseStat // commit-marker persist
}

func newEngine(h *heap.Heap, l *intentlog.Log, heapReg, logReg *nvm.Region) *Engine {
	o := obs.New("inplace")
	heapReg.ExportObs(o, "nvm.main")
	logReg.ExportObs(o, "nvm.log")
	return &Engine{
		heap: h, log: l, locks: locktable.New(), obs: o,
		commits:  o.Counter("commits"),
		depWaits: o.Counter("dependent_waits"),
		phStall:  o.Phase(obs.PhaseDependentStall),
		phIntent: o.Phase(obs.PhaseIntentPersist),
		phHeap:   o.Phase(obs.PhaseHeapPersist),
		phMarker: o.Phase(obs.PhaseCommitPersist),
	}
}

// PendingTx is one incomplete transaction surfaced for chain-level
// recovery.
type PendingTx struct {
	TxID uint64
	Objs []PendingObj

	slot intentlog.SlotView
}

// PendingObj identifies one object whose contents must be fetched from a
// chain neighbour.
type PendingObj struct {
	Obj   heap.ObjID
	Class int
	Op    intentlog.Op
}

// New formats fresh regions and returns an engine.
func New(heapReg, logReg *nvm.Region, logCfg intentlog.Config) (*Engine, error) {
	return NewSharded(heapReg, logReg, logCfg, 0)
}

// NewSharded is New with an explicit concurrency shard count for the lock
// table, heap allocator, and intent-log free-slot pool (0 selects each
// layer's default). Sharding is volatile-only; it never changes what is
// written to NVM.
func NewSharded(heapReg, logReg *nvm.Region, logCfg intentlog.Config, shards int) (*Engine, error) {
	h, err := heap.Format(heapReg)
	if err != nil {
		return nil, err
	}
	logCfg.DataBytesPerSlot = 0
	l, err := intentlog.Format(logReg, logCfg)
	if err != nil {
		return nil, err
	}
	e := newEngine(h, l, heapReg, logReg)
	e.reshard(shards)
	return e, nil
}

// Open attaches to existing regions and runs local recovery. If the result
// has pending transactions (PendingRecovery non-empty), the caller MUST
// resolve them via ResolvePending before Begin.
func Open(heapReg, logReg *nvm.Region) (*Engine, error) {
	return OpenSharded(heapReg, logReg, 0)
}

// OpenSharded is Open with an explicit concurrency shard count (see
// NewSharded).
func OpenSharded(heapReg, logReg *nvm.Region, shards int) (*Engine, error) {
	h, err := heap.Attach(heapReg)
	if err != nil {
		return nil, err
	}
	l, err := intentlog.Attach(logReg)
	if err != nil {
		return nil, err
	}
	e := newEngine(h, l, heapReg, logReg)
	pipe := recovery.New(e.obs, 2)
	if err := pipe.Run(obs.PhaseRecoveryLogReplay, e.Recover); err != nil {
		return nil, err
	}
	if err := pipe.Run(obs.PhaseRecoveryRescan, h.Rescan); err != nil {
		return nil, err
	}
	e.recov = pipe.Report()
	e.reshard(shards)
	return e, nil
}

// reshard retunes the volatile concurrency structures. Called only between
// construction/recovery and the first transaction, while no locks are held
// and no slots are in flight.
func (e *Engine) reshard(n int) {
	if n <= 0 {
		return
	}
	e.locks = locktable.NewSharded(n)
	e.heap.SetShards(n)
	e.log.SetShards(n)
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "inplace" }

// Heap implements engine.Engine.
func (e *Engine) Heap() *heap.Heap { return e.heap }

// Drain implements engine.Engine; commits are synchronous.
func (e *Engine) Drain() {}

// Close implements engine.Engine.
func (e *Engine) Close() error { return nil }

// Obs implements engine.Engine.
func (e *Engine) Obs() *obs.Registry { return e.obs }

// RecoveryReport returns the stage timings of the Open that produced this
// engine (nil for a freshly formatted engine).
func (e *Engine) RecoveryReport() []recovery.StageReport { return e.recov }

// SetTracer implements engine.Engine.
func (e *Engine) SetTracer(t *trace.Tracer) {
	if t != nil && !t.Enabled() {
		t = nil
	}
	e.tr.Store(t)
}

func (e *Engine) trc() *trace.Tracer { return e.tr.Load() }

// Stats implements engine.Engine.
func (e *Engine) Stats() engine.Stats {
	return engine.Stats{Commits: e.commits.Load(), DependentWaits: e.depWaits.Load()}
}

// timedAppend persists one intent-log entry and charges it to the
// intent-persist phase.
func (e *Engine) timedAppend(tl *intentlog.TxLog, ent intentlog.Entry) error {
	start := time.Now()
	err := tl.Append(ent)
	d := time.Since(start)
	e.phIntent.Observe(d)
	if t := e.trc(); t != nil && err == nil {
		off, n := tl.EntryRange(tl.Len() - 1)
		t.IntentAppend(tl.TxID(), ent.Obj, off, n, ent.Op.String())
		t.Span(string(obs.PhaseIntentPersist), tl.TxID(), d)
	}
	return err
}

// Recover completes committed transactions and collects incomplete ones
// for chain-level resolution.
func (e *Engine) Recover() error {
	e.pending = nil
	return e.log.Recover(func(v intentlog.SlotView) error {
		switch v.State {
		case intentlog.StateCommitted:
			for _, ent := range v.Entries {
				if ent.Op == intentlog.OpFree {
					if err := e.heap.ApplyFree(heap.ObjID(ent.Obj)); err != nil {
						return err
					}
				}
			}
			return v.Free()
		case intentlog.StateRunning, intentlog.StateAborted:
			p := PendingTx{TxID: v.TxID, slot: v}
			for _, ent := range v.Entries {
				p.Objs = append(p.Objs, PendingObj{
					Obj:   heap.ObjID(ent.Obj),
					Class: int(ent.Class),
					Op:    ent.Op,
				})
			}
			if len(p.Objs) == 0 {
				return v.Free()
			}
			e.pending = append(e.pending, p)
			return nil
		}
		return nil
	})
}

// PendingRecovery returns the incomplete transactions left by the last
// Open/Recover.
func (e *Engine) PendingRecovery() []PendingTx { return e.pending }

// ResolvePending completes recovery by installing object images obtained
// from a chain neighbour. fetch must return the full block contents
// (header + payload, heap.BlockHeaderSize+class bytes) of the object as
// stored at the neighbour; rolling forward uses the predecessor, rolling
// back the successor — the engine does not care which.
func (e *Engine) ResolvePending(fetch func(obj heap.ObjID, class int) ([]byte, error)) error {
	reg := e.heap.Region()
	for _, p := range e.pending {
		for _, po := range p.Objs {
			img, err := fetch(po.Obj, po.Class)
			if err != nil {
				return fmt.Errorf("inplace: resolving tx %d obj %d: %w", p.TxID, po.Obj, err)
			}
			want := heap.BlockHeaderSize + po.Class
			if len(img) != want {
				return fmt.Errorf("inplace: fetched %d bytes for obj %d, want %d", len(img), po.Obj, want)
			}
			// A zero class in the fetched header means the neighbour
			// never allocated this block — we are rolling an
			// allocation back (successor case). Synthesize a free
			// header of the logged class so the heap stays parseable.
			if binary.LittleEndian.Uint32(img) == 0 {
				clear(img)
				binary.LittleEndian.PutUint32(img, uint32(po.Class))
			}
			blockOff := int(po.Obj) - heap.BlockHeaderSize
			if err := reg.Write(blockOff, img); err != nil {
				return err
			}
			if err := reg.Persist(blockOff, want); err != nil {
				return err
			}
		}
		if err := p.slot.Free(); err != nil {
			return err
		}
	}
	e.pending = nil
	// Block headers may have changed (alloc rolled back/forward).
	return e.heap.Rescan()
}

// ReadBlock returns the full block image of obj; chain neighbours serve
// fetches with it.
func (e *Engine) ReadBlock(obj heap.ObjID, class int) ([]byte, error) {
	blockOff := int(obj) - heap.BlockHeaderSize
	n := heap.BlockHeaderSize + class
	b, err := e.heap.Region().ReadSlice(blockOff, n)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, b)
	return out, nil
}

// Begin implements engine.Engine.
func (e *Engine) Begin() (engine.Tx, error) {
	if len(e.pending) > 0 {
		return nil, errors.New("inplace: pending chain recovery not resolved")
	}
	if err := e.heap.TouchEpoch(); err != nil {
		return nil, err
	}
	tl, err := e.log.Begin()
	if err != nil {
		return nil, err
	}
	e.trc().TxBegin(tl.TxID())
	return &tx{e: e, tl: tl, writeSet: make(map[heap.ObjID]wsEntry)}, nil
}

// wsEntry tracks one write-set member; dirty, the part of the block this
// transaction changed, is all that commit has to flush.
type wsEntry struct {
	class    int
	writable bool
	dirty    engine.Extent
}

type tx struct {
	e        *Engine
	tl       *intentlog.TxLog
	done     bool
	writeSet map[heap.ObjID]wsEntry
	reads    []heap.ObjID
	frees    []heap.ObjID
}

func (t *tx) ID() uint64             { return t.tl.TxID() }
func (t *tx) owner() locktable.Owner { return locktable.Owner(t.tl.TxID()) }

func (t *tx) Add(obj heap.ObjID) error {
	if t.done {
		return engine.ErrTxDone
	}
	if ws, ok := t.writeSet[obj]; ok {
		if ws.writable {
			return nil
		}
		if err := t.e.timedAppend(t.tl, intentlog.Entry{Op: intentlog.OpWrite, Class: uint32(ws.class), Obj: uint64(obj)}); err != nil {
			return err
		}
		ws.writable = true
		t.writeSet[obj] = ws
		return nil
	}
	t.lockObj(obj)
	// Header reads only under the object lock: a committed Free rewrites
	// the header (free-list link) while its lock is still held.
	cls, err := t.e.heap.ClassOf(obj)
	if err != nil {
		t.e.locks.Unlock(uint64(obj), t.owner())
		return err
	}
	if err := t.e.timedAppend(t.tl, intentlog.Entry{Op: intentlog.OpWrite, Class: uint32(cls), Obj: uint64(obj)}); err != nil {
		t.e.locks.Unlock(uint64(obj), t.owner())
		return err
	}
	t.writeSet[obj] = wsEntry{class: cls, writable: true}
	return nil
}

// lockObj write-locks obj, charging any dependent stall.
func (t *tx) lockObj(obj heap.ObjID) {
	if t.e.locks.TryLock(uint64(obj), t.owner()) {
		t.e.trc().LockAcquire(t.ID(), uint64(obj))
		return
	}
	t.e.depWaits.Add(1)
	stallStart := time.Now()
	t.e.locks.Lock(uint64(obj), t.owner())
	d := time.Since(stallStart)
	t.e.phStall.Observe(d)
	if tr := t.e.trc(); tr != nil {
		tr.LockAcquire(t.ID(), uint64(obj))
		tr.Span(string(obs.PhaseDependentStall), t.ID(), d)
	}
}

func (t *tx) Write(obj heap.ObjID, off int, data []byte) error {
	if t.done {
		return engine.ErrTxDone
	}
	ws, ok := t.writeSet[obj]
	if !ok || !ws.writable {
		return fmt.Errorf("%w: %d", engine.ErrNotInTx, obj)
	}
	if err := t.e.heap.Write(obj, off, data); err != nil {
		return err
	}
	ws.dirty.Grow(off, len(data))
	t.writeSet[obj] = ws
	t.e.trc().InPlaceWrite(t.ID(), uint64(obj), int(obj)+off, len(data))
	return nil
}

func (t *tx) Read(obj heap.ObjID) ([]byte, error) {
	if t.done {
		return nil, engine.ErrTxDone
	}
	if _, ok := t.writeSet[obj]; !ok {
		t.e.locks.RLock(uint64(obj), t.owner())
		t.reads = append(t.reads, obj)
	}
	return t.e.heap.Bytes(obj)
}

func (t *tx) Alloc(size int) (heap.ObjID, error) {
	if t.done {
		return heap.Nil, engine.ErrTxDone
	}
	obj, err := t.e.heap.Reserve(size)
	if err != nil {
		return heap.Nil, err
	}
	cls, err := t.e.heap.ClassOf(obj)
	if err != nil {
		return heap.Nil, err
	}
	t.e.locks.Lock(uint64(obj), t.owner())
	t.e.trc().LockAcquire(t.ID(), uint64(obj))
	if err := t.e.timedAppend(t.tl, intentlog.Entry{Op: intentlog.OpAlloc, Class: uint32(cls), Obj: uint64(obj)}); err != nil {
		t.e.locks.Unlock(uint64(obj), t.owner())
		relErr := t.e.heap.ReleaseReservation(obj)
		if relErr != nil {
			return heap.Nil, fmt.Errorf("%w (and release failed: %v)", err, relErr)
		}
		return heap.Nil, err
	}
	if err := t.e.heap.CommitAlloc(obj); err != nil {
		return heap.Nil, err
	}
	t.writeSet[obj] = wsEntry{class: cls, writable: true, dirty: engine.WholeBlock(cls)}
	return obj, nil
}

func (t *tx) Free(obj heap.ObjID) error {
	if t.done {
		return engine.ErrTxDone
	}
	if ws, ok := t.writeSet[obj]; ok {
		if err := t.e.timedAppend(t.tl, intentlog.Entry{Op: intentlog.OpFree, Class: uint32(ws.class), Obj: uint64(obj)}); err != nil {
			return err
		}
		ws.dirty = engine.WholeBlock(ws.class)
		t.writeSet[obj] = ws
	} else {
		t.lockObj(obj)
		cls, err := t.e.heap.ClassOf(obj)
		if err != nil {
			t.e.locks.Unlock(uint64(obj), t.owner())
			return err
		}
		if err := t.e.timedAppend(t.tl, intentlog.Entry{Op: intentlog.OpFree, Class: uint32(cls), Obj: uint64(obj)}); err != nil {
			t.e.locks.Unlock(uint64(obj), t.owner())
			return err
		}
		t.writeSet[obj] = wsEntry{class: cls, writable: false, dirty: engine.WholeBlock(cls)}
	}
	t.frees = append(t.frees, obj)
	return nil
}

func (t *tx) Commit() error {
	if t.done {
		return engine.ErrTxDone
	}
	reg := t.e.heap.Region()
	start := time.Now()
	for obj, ws := range t.writeSet {
		if err := ws.dirty.Flush(reg, obj); err != nil {
			return err
		}
	}
	reg.Fence()
	dHeap := time.Since(start)
	t.e.phHeap.Observe(dHeap)
	t.e.trc().Span(string(obs.PhaseHeapPersist), t.ID(), dHeap)
	start = time.Now()
	if err := t.tl.SetState(intentlog.StateCommitted); err != nil {
		return err
	}
	dMarker := time.Since(start)
	t.e.phMarker.Observe(dMarker)
	if tr := t.e.trc(); tr != nil {
		tr.CommitMarker(t.ID())
		tr.Span(string(obs.PhaseCommitPersist), t.ID(), dMarker)
	}
	for _, obj := range t.frees {
		if err := t.e.heap.ApplyFree(obj); err != nil {
			return err
		}
	}
	if err := t.tl.Release(); err != nil {
		return err
	}
	// Reads release before writes: an upgraded object's read holds are
	// absorbed by its write lock and must not outlive it.
	for _, obj := range t.reads {
		t.e.locks.RUnlock(uint64(obj), t.owner())
	}
	for obj := range t.writeSet {
		t.e.locks.Unlock(uint64(obj), t.owner())
	}
	t.done = true
	t.e.commits.Add(1)
	return nil
}

// Abort succeeds only for read-only transactions (nothing to restore);
// a transaction that modified objects cannot abort without a copy.
func (t *tx) Abort() error {
	if t.done {
		return engine.ErrTxDone
	}
	if len(t.writeSet) > 0 {
		return ErrAbortUnsupported
	}
	if err := t.tl.Release(); err != nil {
		return err
	}
	for _, obj := range t.reads {
		t.e.locks.RUnlock(uint64(obj), t.owner())
	}
	t.done = true
	t.e.trc().Abort(t.ID())
	return nil
}
