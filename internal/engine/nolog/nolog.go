// Package nolog implements the unsafe "No Logging" baseline from the
// paper's Figure 1: transactions edit objects in place with isolation
// (object locks) and durability (flushes at commit) but no atomicity — a
// crash or abort mid-transaction leaves torn state. It exists purely to
// measure the cost that logging mechanisms add on top.
package nolog

import (
	"fmt"
	"sync/atomic"
	"time"

	"kaminotx/internal/engine"
	"kaminotx/internal/heap"
	"kaminotx/internal/locktable"
	"kaminotx/internal/nvm"
	"kaminotx/internal/obs"
	"kaminotx/internal/recovery"
	"kaminotx/internal/trace"
)

// Engine is the no-logging baseline engine.
type Engine struct {
	heap   *heap.Heap
	locks  *locktable.Table
	nextID atomic.Uint64
	obs    *obs.Registry

	recov []recovery.StageReport // stage timings of the Open that built us
	tr    atomic.Pointer[trace.Tracer]

	commits  *obs.Counter
	aborts   *obs.Counter
	depWaits *obs.Counter

	phStall *obs.PhaseStat // contended-lock acquisition time
	phHeap  *obs.PhaseStat // in-place heap flush+fence at commit
}

func newEngine(h *heap.Heap, reg *nvm.Region) *Engine {
	o := obs.New("nolog")
	reg.ExportObs(o, "nvm.main")
	return &Engine{
		heap: h, locks: locktable.New(), obs: o,
		commits:  o.Counter("commits"),
		aborts:   o.Counter("aborts"),
		depWaits: o.Counter("dependent_waits"),
		phStall:  o.Phase(obs.PhaseDependentStall),
		phHeap:   o.Phase(obs.PhaseHeapPersist),
	}
}

// New creates an engine over a freshly formatted heap region.
func New(reg *nvm.Region) (*Engine, error) {
	return NewSharded(reg, 0)
}

// NewSharded is New with an explicit concurrency shard count for the lock
// table and heap allocator (0 selects each layer's default). Sharding is
// volatile-only; it never changes what is written to NVM.
func NewSharded(reg *nvm.Region, shards int) (*Engine, error) {
	h, err := heap.Format(reg)
	if err != nil {
		return nil, err
	}
	e := newEngine(h, reg)
	e.reshard(shards)
	return e, nil
}

// Open attaches to an existing heap region. There is nothing to recover —
// that is the point of this baseline.
func Open(reg *nvm.Region) (*Engine, error) {
	return OpenSharded(reg, 0)
}

// OpenSharded is Open with an explicit concurrency shard count (see
// NewSharded).
func OpenSharded(reg *nvm.Region, shards int) (*Engine, error) {
	h, err := heap.Attach(reg)
	if err != nil {
		return nil, err
	}
	e := newEngine(h, reg)
	pipe := recovery.New(e.obs, 1)
	if err := pipe.Run(obs.PhaseRecoveryRescan, h.Rescan); err != nil {
		return nil, err
	}
	e.recov = pipe.Report()
	e.reshard(shards)
	return e, nil
}

// reshard retunes the volatile concurrency structures. Called only between
// construction and the first transaction, while no locks are held.
func (e *Engine) reshard(n int) {
	if n <= 0 {
		return
	}
	e.locks = locktable.NewSharded(n)
	e.heap.SetShards(n)
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "nolog" }

// Heap implements engine.Engine.
func (e *Engine) Heap() *heap.Heap { return e.heap }

// Recover implements engine.Engine; no-op.
func (e *Engine) Recover() error { return nil }

// Drain implements engine.Engine; no-op.
func (e *Engine) Drain() {}

// Close implements engine.Engine; no-op.
func (e *Engine) Close() error { return nil }

// Obs implements engine.Engine.
func (e *Engine) Obs() *obs.Registry { return e.obs }

// RecoveryReport returns the stage timings of the Open that produced this
// engine (nil for a freshly formatted engine).
func (e *Engine) RecoveryReport() []recovery.StageReport { return e.recov }

// SetTracer implements engine.Engine. The audit policy for "nolog"
// checks nothing — this baseline is unsafe by design — but its events
// still appear in exported traces.
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
		Commits:        e.commits.Load(),
		Aborts:         e.aborts.Load(),
		DependentWaits: e.depWaits.Load(),
	}
}

// Begin implements engine.Engine.
func (e *Engine) Begin() (engine.Tx, error) {
	if err := e.heap.TouchEpoch(); err != nil {
		return nil, err
	}
	id := e.nextID.Add(1)
	e.trc().TxBegin(id)
	return &tx{e: e, id: id, writeSet: make(map[heap.ObjID]engine.Extent)}, nil
}

type tx struct {
	e    *Engine
	id   uint64
	done bool
	// writeSet maps each locked object to the part of its block this
	// transaction changed — all that commit has to flush.
	writeSet map[heap.ObjID]engine.Extent
	reads    []heap.ObjID
	frees    []heap.ObjID
}

func (t *tx) ID() uint64 { return t.id }

func (t *tx) owner() locktable.Owner { return locktable.Owner(t.id) }

func (t *tx) Add(obj heap.ObjID) error {
	if t.done {
		return engine.ErrTxDone
	}
	if _, ok := t.writeSet[obj]; ok {
		return nil
	}
	if t.e.locks.TryLock(uint64(obj), t.owner()) {
		t.e.trc().LockAcquire(t.id, uint64(obj))
	} else {
		t.e.depWaits.Add(1)
		start := time.Now()
		t.e.locks.Lock(uint64(obj), t.owner())
		d := time.Since(start)
		t.e.phStall.Observe(d)
		if tr := t.e.trc(); tr != nil {
			tr.LockAcquire(t.id, uint64(obj))
			tr.Span(string(obs.PhaseDependentStall), t.id, d)
		}
	}
	// Validate under the object lock: a committed Free rewrites the
	// header (free-list link) while its lock is still held.
	if _, err := t.e.heap.ClassOf(obj); err != nil {
		t.e.locks.Unlock(uint64(obj), t.owner())
		return err
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
	t.e.trc().InPlaceWrite(t.id, uint64(obj), int(obj)+off, len(data))
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
	if err := t.e.heap.CommitAlloc(obj); err != nil {
		return heap.Nil, err
	}
	t.e.locks.Lock(uint64(obj), t.owner())
	t.e.trc().LockAcquire(t.id, uint64(obj))
	t.writeSet[obj] = engine.WholeBlock(heap.ClassForSize(size))
	return obj, nil
}

func (t *tx) Free(obj heap.ObjID) error {
	if t.done {
		return engine.ErrTxDone
	}
	if err := t.Add(obj); err != nil {
		return err
	}
	cls, err := t.e.heap.ClassOf(obj)
	if err != nil {
		return err
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
	t.e.trc().Span(string(obs.PhaseHeapPersist), t.id, d)
	for _, obj := range t.frees {
		if err := t.e.heap.ApplyFree(obj); err != nil {
			return err
		}
	}
	t.finish()
	t.e.commits.Add(1)
	return nil
}

// Abort releases locks but cannot restore anything: this baseline has no
// copy of the old data. Modified objects keep their torn contents.
func (t *tx) Abort() error {
	if t.done {
		return engine.ErrTxDone
	}
	t.finish()
	t.e.aborts.Add(1)
	t.e.trc().Abort(t.id)
	return nil
}
