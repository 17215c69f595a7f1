package engine

import (
	"fmt"
	"slices"
	"time"

	"kaminotx/internal/heap"
	"kaminotx/internal/intentlog"
	"kaminotx/internal/locktable"
	"kaminotx/internal/obs"
	"kaminotx/internal/trace"
)

// WriteEntry tracks one write-set member: an object this transaction holds
// the write lock of. Writable is false for an object that was only Free'd —
// locked and logged, but in-place writes need an Add first (which makes the
// mechanism's record an abort restores from). Dirty is what the transaction
// stored into the block: the lines of every Write, the whole block for an
// allocated object (header and zeroed payload), the header line for a freed
// one. Commit flushes, and Kamino's applier copies to the backup, only
// those lines.
type WriteEntry struct {
	Class    int
	Writable bool
	Dirty    Extent
}

// BaseTx is the transaction skeleton over a Base: identity, the write set,
// the read set, the bare locks and the deferred frees, the locks behind
// them, and every step of a transaction's life that does not depend on the
// atomicity mechanism. A mechanism embeds it and supplies Add (Declare, its own
// record, Admit), and Abort (AbortWith its restore); Commit, Write and Read
// as they stand are those of a mechanism that edits in place and holds its
// write locks no longer than the transaction.
type BaseTx struct {
	b     *Base
	tl    *intentlog.TxLog // nil when the engine keeps no log
	id    uint64
	done  bool
	began bool // TxBegin emitted (first write intent)
	*TxState
}

// TxState is what a transaction keeps track of while it runs: the write
// set, the read set, the bare locks and the deferred frees. It is the
// transaction's only growing state, so it is recycled: BeginTx takes one
// from the engine's pool and the end of the transaction returns it — the
// commit or abort itself, or, for a mechanism whose write set outlives the
// transaction (Detach), whoever reconciles it, with Base.Recycle. A spent
// BaseTx keeps no pointer to it; every Tx method answers ErrTxDone before
// it would look.
type TxState struct {
	ws    map[heap.ObjID]WriteEntry
	reads []heap.ObjID
	held  []heap.ObjID // write-locked by Lock, no intent declared
	frees []heap.ObjID
}

// WriteSet exposes the write set, to read.
func (s *TxState) WriteSet() map[heap.ObjID]WriteEntry { return s.ws }

// maxRecycledWriteSet bounds the write sets kept for reuse: clearing a map
// costs its capacity, and one bulk transaction's should not be charged to
// every small one after it.
const maxRecycledWriteSet = 64

// Recycle returns a finished transaction's state to the pool BeginTx draws
// from. Nothing may refer to it afterwards.
func (b *Base) Recycle(s *TxState) {
	if len(s.ws) > maxRecycledWriteSet {
		return
	}
	clear(s.ws)
	s.reads, s.held, s.frees = s.reads[:0], s.held[:0], s.frees[:0]
	b.states.Put(s)
}

// BeginTx starts a transaction: it claims a log slot, blocking while none is
// free. No device is touched and no trace event is emitted: a transaction
// that declares no write intent leaves no trace of any kind.
func (b *Base) BeginTx() (BaseTx, error) {
	t := BaseTx{b: b}
	if b.log == nil {
		t.id = b.nextID.Add(1)
	} else {
		tl, err := b.log.Begin()
		if err != nil {
			return BaseTx{}, err
		}
		t.tl, t.id = tl, tl.TxID()
	}
	t.TxState = b.states.Get().(*TxState)
	return t, nil
}

// ID implements Tx.
func (t *BaseTx) ID() uint64 { return t.id }

// Owner is the identity the transaction's locks are held under.
func (t *BaseTx) Owner() locktable.Owner { return locktable.Owner(t.id) }

// Done reports whether the transaction has committed or aborted.
func (t *BaseTx) Done() bool { return t.done }

// ReadOnly reports whether the write set is empty: nothing locked for
// writing, nothing logged, nothing to persist. Like WriteSet, it is for a
// transaction that is not Done.
func (t *BaseTx) ReadOnly() bool { return len(t.ws) == 0 }

// Log returns the transaction's intent-log slot (nil with no log).
func (t *BaseTx) Log() *intentlog.TxLog { return t.tl }

// Tracer returns the engine's tracer (see Base.Tracer).
func (t *BaseTx) Tracer() *trace.Tracer { return t.b.Tracer() }

// traceBegin emits the transaction's TxBegin marker ahead of its first
// traced lifecycle event. Deferring it off Begin keeps read-only
// transactions out of the trace entirely: they touch no NVM (the intent
// slot header is lazily initialized too), hold no pending state, and no
// auditor rule consumes a transaction without a write intent — so their
// events would be pure recording cost at audit-overhead time.
func (t *BaseTx) traceBegin(tr *trace.Tracer) {
	if !t.began {
		t.began = true
		tr.TxBegin(t.id)
	}
}

// lock acquires obj's write lock, attributing any blocking on a prior
// transaction's unreconciled write set to the dependent-stall phase. With
// intent false the lock is a bare one (see Lock) and leaves the trace alone:
// a transaction that declares no write intent leaves no trace of any kind.
// With intent true the lock is the write set's, and a bare lock already held
// on obj becomes that one: the table's locks are reentrant and release whole.
func (t *BaseTx) lock(obj heap.ObjID, intent bool) {
	tr := t.Tracer()
	if !intent {
		tr = nil
	} else if i := slices.Index(t.held, obj); i >= 0 {
		t.held = slices.Delete(t.held, i, i+1)
	}
	if t.b.locks.TryLock(uint64(obj), t.Owner()) {
		if tr != nil {
			t.traceBegin(tr)
			tr.LockAcquire(t.id, uint64(obj))
		}
		return
	}
	t.b.depWaits.Add(1)
	start := time.Now()
	t.b.locks.Lock(uint64(obj), t.Owner())
	d := time.Since(start)
	t.b.phStall.Observe(d)
	if tr != nil {
		t.traceBegin(tr)
		tr.LockAcquire(t.id, uint64(obj))
		tr.Span(string(obs.PhaseDependentStall), t.id, d)
	}
}

// Lock implements Tx: obj's write lock and nothing else. The object joins
// neither the write set nor the log, so Write refuses it, commit persists
// nothing for it, an abort has nothing to restore, and a mechanism that
// keeps write locks past commit (Kamino's applier) never sees it: the lock
// drops with the read locks when the transaction ends. A later Add upgrades
// it to a declared intent without locking again.
func (t *BaseTx) Lock(obj heap.ObjID) error {
	if t.done {
		return ErrTxDone
	}
	if _, ok := t.ws[obj]; !ok && !slices.Contains(t.held, obj) {
		t.lock(obj, false)
		t.held = append(t.held, obj)
	}
	return nil
}

// Declare opens a write-intent declaration on obj. ok is false when there
// is nothing to do — obj is already writable in this transaction — or err
// says why not. Otherwise obj's write lock is held — taken here, blocking
// while a prior dependent transaction is unreconciled, unless an earlier
// Free or Lock already holds it — and class is its payload class; the
// mechanism makes its record and closes the declaration with Admit.
func (t *BaseTx) Declare(obj heap.ObjID) (class int, ok bool, err error) {
	if t.done {
		return 0, false, ErrTxDone
	}
	if ws, held := t.ws[obj]; held {
		return ws.Class, !ws.Writable, nil
	}
	t.lock(obj, true)
	// Header reads only under the object lock: a committed Free rewrites
	// the header (free-list link), and a rollback or copy-back the whole
	// block, while the lock is still held.
	if class, err = t.b.heap.ClassOf(obj); err != nil {
		t.b.locks.Unlock(uint64(obj), t.Owner())
		return 0, false, err
	}
	return class, true, nil
}

// Admit closes the declaration Declare opened. With the mechanism's record
// made (err nil) obj becomes writable; otherwise the lock Declare took is
// dropped and err returned.
func (t *BaseTx) Admit(obj heap.ObjID, class int, err error) error {
	ws, held := t.ws[obj]
	if err != nil {
		if !held {
			t.b.locks.Unlock(uint64(obj), t.Owner())
		}
		return err
	}
	ws.Class, ws.Writable = class, true
	t.ws[obj] = ws
	return nil
}

// Append durably logs one intent — no data, only the object's address and
// class — and charges it to the intent-persist phase. On return the intent
// is durable and the object may be modified. With no log it does nothing.
func (t *BaseTx) Append(op intentlog.Op, obj heap.ObjID, class int) error {
	if t.tl == nil {
		return nil
	}
	start := time.Now()
	err := t.tl.Append(intentlog.Entry{Op: op, Class: uint32(class), Obj: uint64(obj)})
	d := time.Since(start)
	t.b.phIntent.Observe(d)
	if tr := t.Tracer(); tr != nil && err == nil {
		t.TraceAppend(obj, op)
		tr.Span(string(obs.PhaseIntentPersist), t.id, d)
	}
	return err
}

// TraceAppend emits the intent event for the log entry just appended.
func (t *BaseTx) TraceAppend(obj heap.ObjID, op intentlog.Op) {
	if tr := t.Tracer(); tr != nil {
		t.traceBegin(tr)
		off, n := t.tl.EntryRange(t.tl.Len() - 1)
		tr.IntentAppend(t.id, uint64(obj), off, n, op.String())
	}
}

// Write implements Tx: an in-place store into a writable write-set member.
func (t *BaseTx) Write(obj heap.ObjID, off int, data []byte) error {
	if t.done {
		return ErrTxDone
	}
	ws, ok := t.ws[obj]
	if !ok || !ws.Writable {
		return fmt.Errorf("%w: %d", ErrNotInTx, obj)
	}
	if err := t.b.heap.Write(obj, off, data); err != nil {
		return err
	}
	ws.Dirty.Grow(obj, off, len(data))
	t.ws[obj] = ws
	t.Tracer().InPlaceWrite(t.id, uint64(obj), int(obj)+off, len(data))
	return nil
}

// Read implements Tx.
func (t *BaseTx) Read(obj heap.ObjID) ([]byte, error) {
	if t.done {
		return nil, ErrTxDone
	}
	if _, ok := t.ws[obj]; !ok {
		t.b.locks.RLock(uint64(obj), t.Owner())
		t.reads = append(t.reads, obj)
	}
	return t.b.heap.Bytes(obj)
}

// Alloc implements Tx. The intent is durable before the block is marked
// allocated, and the mark is made durable by the commit — the block's whole
// extent joins the write set — so a crash anywhere before the commit marker
// rolls the allocation back. The fresh block is locked first; nobody else
// can reach it until commit.
func (t *BaseTx) Alloc(size int) (heap.ObjID, error) {
	if t.done {
		return heap.Nil, ErrTxDone
	}
	obj, err := t.b.heap.Reserve(size)
	if err != nil {
		return heap.Nil, err
	}
	cls, err := t.b.heap.ClassOf(obj)
	if err != nil {
		return heap.Nil, err
	}
	t.b.locks.Lock(uint64(obj), t.Owner())
	if tr := t.Tracer(); tr != nil {
		t.traceBegin(tr)
		tr.LockAcquire(t.id, uint64(obj))
	}
	if err := t.Append(intentlog.OpAlloc, obj, cls); err != nil {
		t.b.locks.Unlock(uint64(obj), t.Owner())
		if relErr := t.b.heap.ReleaseReservation(obj); relErr != nil {
			return heap.Nil, fmt.Errorf("%w (and release failed: %v)", err, relErr)
		}
		return heap.Nil, err
	}
	if _, err := t.b.heap.MarkAlloc(obj); err != nil {
		return heap.Nil, err
	}
	t.ws[obj] = WriteEntry{Class: cls, Writable: true, Dirty: WholeBlock(obj, cls)}
	return obj, nil
}

// Free implements Tx: lock and record the intent. The free itself is
// deferred to commit, so an abort has nothing to undo and the mechanism
// needs no record of the object's contents. ApplyFree persists the header
// it rewrites on its own, after the marker; the header line joins the
// extent so that Kamino's simple backend copies it too and stays a
// byte-for-byte mirror of main. The payload does not change and costs
// nothing.
func (t *BaseTx) Free(obj heap.ObjID) error {
	if t.done {
		return ErrTxDone
	}
	ws, held := t.ws[obj]
	if !held {
		t.lock(obj, true)
		cls, err := t.b.heap.ClassOf(obj)
		if err != nil {
			t.b.locks.Unlock(uint64(obj), t.Owner())
			return err
		}
		ws.Class = cls
	}
	if err := t.Append(intentlog.OpFree, obj, ws.Class); err != nil {
		if !held {
			t.b.locks.Unlock(uint64(obj), t.Owner())
		}
		return err
	}
	ws.Dirty.Mark(obj, 0, heap.BlockHeaderSize)
	t.ws[obj] = ws
	t.frees = append(t.frees, obj)
	return nil
}

// Commit implements Tx for a mechanism that edits in place and holds its
// write locks no longer than the transaction: the dirty extents are made
// durable, then the commit marker, then Finish. An empty write set skips
// both persists — nothing was logged (the slot header was never written)
// and nothing needs flushing or fencing — so a read-only transaction
// commits without touching the device or the trace.
func (t *BaseTx) Commit() error {
	if t.done {
		return ErrTxDone
	}
	if !t.ReadOnly() {
		at, err := t.PersistHeap(time.Now())
		if err != nil {
			return err
		}
		if _, err := t.PersistMarker(at); err != nil {
			return err
		}
	}
	return t.Finish()
}

// The persist steps of a commit run back to back, so each takes the clock
// reading it starts at and returns the one it ends at: the end of one phase
// is the start of the next, and a commit reads the clock once per boundary.

// PersistHeap flushes the lines every write-set member's stores touched
// (allocations included: their mark is made durable here) and fences: the
// in-place stores are durable before the commit marker can be.
func (t *BaseTx) PersistHeap(start time.Time) (end time.Time, err error) {
	reg := t.b.heap.Region()
	for obj, ws := range t.ws {
		if err := ws.Dirty.Flush(reg, obj); err != nil {
			return start, err
		}
	}
	reg.Fence()
	end = time.Now()
	d := end.Sub(start)
	t.b.phHeap.Observe(d)
	t.Tracer().Span(string(obs.PhaseHeapPersist), t.id, d)
	return end, nil
}

// PersistMarker is the commit point: the one-line state store of the
// transaction's log slot. With no log there is no commit point.
func (t *BaseTx) PersistMarker(start time.Time) (end time.Time, err error) {
	if t.tl == nil {
		return start, nil
	}
	if err := t.tl.SetState(intentlog.StateCommitted); err != nil {
		return start, err
	}
	end = time.Now()
	d := end.Sub(start)
	t.b.phMarker.Observe(d)
	if tr := t.Tracer(); tr != nil {
		tr.CommitMarker(t.id)
		tr.Span(string(obs.PhaseCommitPersist), t.id, d)
	}
	return end, nil
}

// Finish completes a commit whose marker is durable (or that wrote
// nothing): the deferred frees take effect, the log slot is released, every
// lock dropped, and the transaction is spent and counted.
func (t *BaseTx) Finish() error {
	if err := t.applyFrees(); err != nil {
		return err
	}
	return t.end(t.b.commits)
}

// Detach ends a committed transaction whose write set must outlive it: the
// deferred frees take effect, the read locks and the bare locks drop — they
// impose no pending window — and the transaction is spent and counted. The
// write locks, the log slot and the state that names them pass to the
// caller, who releases them once the write set is reconciled (Kamino's
// applier, after the backup sync) and then hands the state to Base.Recycle.
func (t *BaseTx) Detach() (*TxState, error) {
	if err := t.applyFrees(); err != nil {
		return nil, err
	}
	t.unlockReads()
	t.b.commits.Inc()
	s := t.TxState
	t.done, t.TxState = true, nil
	return s, nil
}

// AbortWith implements Abort around the mechanism's restore (see
// Base.Rollback): abort marker, rollback of the logged intents, slot
// release, unlock. A transaction that logged nothing aborts without
// touching the device, and one that never declared a write intent without
// touching the trace either.
func (t *BaseTx) AbortWith(restore func(intentlog.Entry) error) error {
	if t.done {
		return ErrTxDone
	}
	tr := t.Tracer()
	if t.tl != nil && t.tl.Len() > 0 {
		if err := t.tl.SetState(intentlog.StateAborted); err != nil {
			return err
		}
		entries, err := t.tl.Entries()
		if err != nil {
			return err
		}
		if err := t.b.Rollback(tr, t.id, entries, restore); err != nil {
			return err
		}
	}
	// A transaction with no write intent undid nothing: that is how a read
	// ends (Pool.View), and counting it would make every read an abort.
	count := t.b.aborts
	if t.ReadOnly() {
		count = nil
	}
	if err := t.end(count); err != nil {
		return err
	}
	if t.began {
		tr.Abort(t.id)
	}
	return nil
}

// applyFrees makes the deferred frees take effect; only after the commit
// marker, which is what recovery re-applies them from.
func (t *BaseTx) applyFrees() error {
	for _, obj := range t.frees {
		if err := t.b.heap.ApplyFree(obj); err != nil {
			return err
		}
	}
	return nil
}

// unlockReads drops the read locks, then the bare write locks: a bare-locked
// object's read holds were absorbed by its write lock and must not outlive it.
func (t *BaseTx) unlockReads() {
	for _, obj := range t.reads {
		t.b.locks.RUnlock(uint64(obj), t.Owner())
	}
	for _, obj := range t.held {
		t.b.locks.Unlock(uint64(obj), t.Owner())
	}
}

// end releases the log slot and every lock, counts the transaction on
// count unless it is nil, and recycles its state.
// Reads release before writes: an upgraded object's read holds are absorbed
// by its write lock and must not outlive it.
func (t *BaseTx) end(count *obs.Counter) error {
	if t.tl != nil {
		if err := t.tl.Release(); err != nil {
			return err
		}
	}
	t.unlockReads()
	for obj := range t.ws {
		t.b.locks.Unlock(uint64(obj), t.Owner())
	}
	if count != nil {
		count.Inc()
	}
	t.b.Recycle(t.TxState)
	t.done, t.TxState = true, nil
	return nil
}
