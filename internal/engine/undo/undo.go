// Package undo implements the undo-logging baseline: the atomicity
// mechanism of Intel's NVML/libpmemobj that the paper measures Kamino-Tx
// against. Before an object may be modified, its entire old contents are
// copied into the persistent undo log *in the critical path* (TX_ADD); the
// transaction then edits the original in place. Aborts and crash recovery
// restore objects from the logged copies; commit discards them.
package undo

import (
	"fmt"
	"runtime"
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

// Engine is the undo-logging engine.
type Engine struct {
	heap  *heap.Heap
	log   *intentlog.Log
	locks *locktable.Table
	obs   *obs.Registry

	recov []recovery.StageReport // stage timings of the Open that built us
	tr    atomic.Pointer[trace.Tracer]

	commits  *obs.Counter
	aborts   *obs.Counter
	critCopy *obs.Counter
	depWaits *obs.Counter

	phStall    *obs.PhaseStat // dependent-lock acquisition time
	phCritCopy *obs.PhaseStat // old-value copy into the undo log
	phHeap     *obs.PhaseStat // in-place heap flush+fence at commit
	phMarker   *obs.PhaseStat // commit-marker persist
}

func newEngine(h *heap.Heap, l *intentlog.Log, heapReg, logReg *nvm.Region) *Engine {
	o := obs.New("undo")
	heapReg.ExportObs(o, "nvm.main")
	logReg.ExportObs(o, "nvm.log")
	return &Engine{
		heap: h, log: l, locks: locktable.New(), obs: o,
		commits:    o.Counter("commits"),
		aborts:     o.Counter("aborts"),
		critCopy:   o.Counter("bytes_copied_critical"),
		depWaits:   o.Counter("dependent_waits"),
		phStall:    o.Phase(obs.PhaseDependentStall),
		phCritCopy: o.Phase(obs.PhaseCriticalCopy),
		phHeap:     o.Phase(obs.PhaseHeapPersist),
		phMarker:   o.Phase(obs.PhaseCommitPersist),
	}
}

// New formats a fresh heap and log and returns an engine over them.
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
	l, err := intentlog.Format(logReg, logCfg)
	if err != nil {
		return nil, err
	}
	e := newEngine(h, l, heapReg, logReg)
	e.reshard(shards)
	return e, nil
}

// Open attaches to existing regions, runs crash recovery, and rebuilds the
// heap free lists.
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
func (e *Engine) Name() string { return "undo" }

// Heap implements engine.Engine.
func (e *Engine) Heap() *heap.Heap { return e.heap }

// Drain implements engine.Engine; undo logging is fully synchronous.
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
	return engine.Stats{
		Commits:             e.commits.Load(),
		Aborts:              e.aborts.Load(),
		BytesCopiedCritical: e.critCopy.Load(),
		DependentWaits:      e.depWaits.Load(),
	}
}

// Recover rolls incomplete and aborted transactions back from their undo
// copies and completes the deferred frees of committed transactions.
func (e *Engine) Recover() error {
	return e.log.RecoverParallel(runtime.GOMAXPROCS(0), func(v intentlog.SlotView) error {
		switch v.State {
		case intentlog.StateCommitted:
			for _, ent := range v.Entries {
				if ent.Op == intentlog.OpFree {
					if err := e.heap.ApplyFree(heap.ObjID(ent.Obj)); err != nil {
						return err
					}
				}
			}
		case intentlog.StateRunning, intentlog.StateAborted:
			if err := e.rollback(nil, 0, v.Entries, func(dataOff uint32, n int) ([]byte, error) {
				return v.Data(dataOff, n)
			}); err != nil {
				return err
			}
		}
		return v.Free()
	})
}

// rollback restores objects from undo copies and unwinds allocations.
// Entries are processed newest-first so an alloc-then-write sequence undoes
// cleanly. Object-granularity copies make this idempotent.
func (e *Engine) rollback(tr *trace.Tracer, txid uint64, entries []intentlog.Entry, data func(uint32, int) ([]byte, error)) error {
	reg := e.heap.Region()
	for i := len(entries) - 1; i >= 0; i-- {
		ent := entries[i]
		switch ent.Op {
		case intentlog.OpWrite:
			old, err := data(ent.DataOff, int(ent.DataLen))
			if err != nil {
				return err
			}
			blockOff := int(ent.Obj) - heap.BlockHeaderSize
			if err := reg.Write(blockOff, old); err != nil {
				return err
			}
			if err := reg.Persist(blockOff, len(old)); err != nil {
				return err
			}
			tr.Rollback(txid, ent.Obj)
		case intentlog.OpAlloc:
			if err := e.heap.RollbackAlloc(heap.ObjID(ent.Obj), int(ent.Class)); err != nil {
				return err
			}
			tr.Rollback(txid, ent.Obj)
		case intentlog.OpFree:
			// Deferred free never happened; nothing to undo.
		}
	}
	return nil
}

// Begin implements engine.Engine.
func (e *Engine) Begin() (engine.Tx, error) {
	if err := e.heap.TouchEpoch(); err != nil {
		return nil, err
	}
	tl, err := e.log.Begin()
	if err != nil {
		return nil, err
	}
	return &tx{e: e, tl: tl, writeSet: make(map[heap.ObjID]engine.Extent)}, nil
}

type tx struct {
	e     *Engine
	tl    *intentlog.TxLog
	done  bool
	began bool // TxBegin emitted (first write intent)
	// writeSet maps each locked object to the part of its block this
	// transaction changed — all that commit has to flush.
	writeSet map[heap.ObjID]engine.Extent
	reads    []heap.ObjID
	frees    []heap.ObjID
}

func (t *tx) ID() uint64             { return t.tl.TxID() }
func (t *tx) owner() locktable.Owner { return locktable.Owner(t.tl.TxID()) }

// traceBegin emits the transaction's TxBegin marker ahead of its first
// traced lifecycle event, so read-only transactions (which touch no NVM
// and feed no auditor rule) stay out of the trace entirely. See the
// kamino engine's traceBegin for the rationale.
func (t *tx) traceBegin(tr *trace.Tracer) {
	if !t.began {
		t.began = true
		tr.TxBegin(t.ID())
	}
}

// Add copies obj's old contents into the undo log before admitting writes.
// This copy is the critical-path cost Kamino-Tx eliminates.
func (t *tx) Add(obj heap.ObjID) error {
	if t.done {
		return engine.ErrTxDone
	}
	if _, ok := t.writeSet[obj]; ok {
		return nil
	}
	if t.e.locks.TryLock(uint64(obj), t.owner()) {
		if tr := t.e.trc(); tr != nil {
			t.traceBegin(tr)
			tr.LockAcquire(t.ID(), uint64(obj))
		}
	} else {
		t.e.depWaits.Add(1)
		stallStart := time.Now()
		t.e.locks.Lock(uint64(obj), t.owner())
		d := time.Since(stallStart)
		t.e.phStall.Observe(d)
		if tr := t.e.trc(); tr != nil {
			t.traceBegin(tr)
			tr.LockAcquire(t.ID(), uint64(obj))
			tr.Span(string(obs.PhaseDependentStall), t.ID(), d)
		}
	}
	// Header reads only under the object lock: a concurrent abort's
	// rollback rewrites the whole block, header included.
	cls, err := t.e.heap.ClassOf(obj)
	if err != nil {
		t.e.locks.Unlock(uint64(obj), t.owner())
		return err
	}
	blockOff, blockLen, err := t.e.heap.Range(obj)
	if err != nil {
		t.e.locks.Unlock(uint64(obj), t.owner())
		return err
	}
	copyStart := time.Now()
	old, err := t.e.heap.Region().ReadSlice(blockOff, blockLen)
	if err != nil {
		t.e.locks.Unlock(uint64(obj), t.owner())
		return err
	}
	if _, err := t.tl.AppendWithData(intentlog.Entry{
		Op:    intentlog.OpWrite,
		Class: uint32(cls),
		Obj:   uint64(obj),
	}, old); err != nil {
		t.e.locks.Unlock(uint64(obj), t.owner())
		return err
	}
	d := time.Since(copyStart)
	t.e.phCritCopy.Observe(d)
	t.e.critCopy.Add(uint64(blockLen))
	if tr := t.e.trc(); tr != nil {
		off, n := t.tl.EntryRange(t.tl.Len() - 1)
		tr.IntentAppend(t.ID(), uint64(obj), off, n, intentlog.OpWrite.String())
		tr.Span(string(obs.PhaseCriticalCopy), t.ID(), d)
	}
	t.writeSet[obj] = engine.Extent{}
	return nil
}

func (t *tx) Write(obj heap.ObjID, off int, data []byte) error {
	if t.done {
		return engine.ErrTxDone
	}
	dirty, ok := t.writeSet[obj]
	if !ok {
		return fmt.Errorf("%w: %d", engine.ErrNotInTx, obj)
	}
	if err := t.e.heap.Write(obj, off, data); err != nil {
		return err
	}
	dirty.Grow(off, len(data))
	t.writeSet[obj] = dirty
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
	// Intent first, then the durable header write: a crash in between
	// rolls the allocation back.
	if err := t.tl.Append(intentlog.Entry{
		Op:    intentlog.OpAlloc,
		Class: uint32(cls),
		Obj:   uint64(obj),
	}); err != nil {
		relErr := t.e.heap.ReleaseReservation(obj)
		if relErr != nil {
			return heap.Nil, fmt.Errorf("%w (and release failed: %v)", err, relErr)
		}
		return heap.Nil, err
	}
	if tr := t.e.trc(); tr != nil {
		off, n := t.tl.EntryRange(t.tl.Len() - 1)
		t.traceBegin(tr) // the intent entry is this tx's first traced event
		tr.IntentAppend(t.ID(), uint64(obj), off, n, intentlog.OpAlloc.String())
	}
	if err := t.e.heap.CommitAlloc(obj); err != nil {
		return heap.Nil, err
	}
	t.e.locks.Lock(uint64(obj), t.owner())
	if tr := t.e.trc(); tr != nil {
		t.traceBegin(tr)
		tr.LockAcquire(t.ID(), uint64(obj))
	}
	t.writeSet[obj] = engine.WholeBlock(cls)
	return obj, nil
}

func (t *tx) Free(obj heap.ObjID) error {
	if t.done {
		return engine.ErrTxDone
	}
	// Capture the old contents (via Add) so an abort can restore them
	// even if the caller also wrote to the object.
	if err := t.Add(obj); err != nil {
		return err
	}
	cls, err := t.e.heap.ClassOf(obj)
	if err != nil {
		return err
	}
	if err := t.tl.Append(intentlog.Entry{
		Op:    intentlog.OpFree,
		Class: uint32(cls),
		Obj:   uint64(obj),
	}); err != nil {
		return err
	}
	if tr := t.e.trc(); tr != nil {
		off, n := t.tl.EntryRange(t.tl.Len() - 1)
		tr.IntentAppend(t.ID(), uint64(obj), off, n, intentlog.OpFree.String())
	}
	t.writeSet[obj] = engine.WholeBlock(cls)
	t.frees = append(t.frees, obj)
	return nil
}

func (t *tx) finish() {
	// Reads release before writes: an upgraded object's read holds are
	// absorbed by its write lock and must not outlive it.
	for _, obj := range t.reads {
		t.e.locks.RUnlock(uint64(obj), t.owner())
	}
	for obj := range t.writeSet {
		t.e.locks.Unlock(uint64(obj), t.owner())
	}
	t.done = true
}

func (t *tx) Commit() error {
	if t.done {
		return engine.ErrTxDone
	}
	if len(t.writeSet) == 0 {
		// Read-only fast path: no undo entries, no header, no heap
		// dirt — release the read locks and the slot without touching
		// the device or the trace (see the kamino engine's Commit).
		if err := t.tl.Release(); err != nil {
			return err
		}
		t.finish()
		t.e.commits.Add(1)
		return nil
	}
	reg := t.e.heap.Region()
	start := time.Now()
	for obj, dirty := range t.writeSet {
		if err := dirty.Flush(reg, obj); err != nil {
			return err
		}
	}
	reg.Fence()
	d := time.Since(start)
	t.e.phHeap.Observe(d)
	tr := t.e.trc()
	tr.Span(string(obs.PhaseHeapPersist), t.ID(), d)
	// Commit point: the one-line state store.
	start = time.Now()
	if err := t.tl.SetState(intentlog.StateCommitted); err != nil {
		return err
	}
	d = time.Since(start)
	t.e.phMarker.Observe(d)
	if tr != nil {
		tr.CommitMarker(t.ID())
		tr.Span(string(obs.PhaseCommitPersist), t.ID(), d)
	}
	for _, obj := range t.frees {
		if err := t.e.heap.ApplyFree(obj); err != nil {
			return err
		}
	}
	if err := t.tl.Release(); err != nil {
		return err
	}
	t.finish()
	t.e.commits.Add(1)
	return nil
}

func (t *tx) Abort() error {
	if t.done {
		return engine.ErrTxDone
	}
	if err := t.tl.SetState(intentlog.StateAborted); err != nil {
		return err
	}
	entries, err := t.tl.Entries()
	if err != nil {
		return err
	}
	if err := t.e.rollback(t.e.trc(), t.ID(), entries, func(dataOff uint32, n int) ([]byte, error) {
		return t.tl.Data(dataOff, n)
	}); err != nil {
		return err
	}
	if err := t.tl.Release(); err != nil {
		return err
	}
	t.finish()
	t.e.aborts.Add(1)
	if t.began {
		t.e.trc().Abort(t.ID())
	}
	return nil
}
