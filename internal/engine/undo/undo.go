// Package undo implements the undo-logging baseline: the atomicity
// mechanism of Intel's NVML/libpmemobj that the paper measures Kamino-Tx
// against. Before an object may be modified, its entire old contents are
// copied into the persistent undo log *in the critical path* (TX_ADD); the
// transaction then edits the original in place. Aborts and crash recovery
// restore objects from the logged copies; commit discards them.
package undo

import (
	"time"

	"kaminotx/internal/engine"
	"kaminotx/internal/heap"
	"kaminotx/internal/intentlog"
	"kaminotx/internal/nvm"
	"kaminotx/internal/obs"
)

// Engine is the undo-logging engine: the shared skeleton plus the old-value
// copy Add makes and the restore from it.
type Engine struct {
	*engine.Base

	critCopy   *obs.Counter
	phCritCopy *obs.PhaseStat // old-value copy into the undo log
}

func newEngine(b *engine.Base) *Engine {
	return &Engine{
		Base:       b,
		critCopy:   b.Obs().Counter("bytes_copied_critical"),
		phCritCopy: b.Obs().Phase(obs.PhaseCriticalCopy),
	}
}

// New formats a fresh heap and log and returns an engine over them.
func New(heapReg, logReg *nvm.Region, logCfg intentlog.Config) (*Engine, error) {
	b, err := engine.Format("undo", engine.Regions{Main: heapReg, Log: logReg}, logCfg)
	if err != nil {
		return nil, err
	}
	return newEngine(b), nil
}

// Open attaches to existing regions, runs crash recovery, and rebuilds the
// heap free lists.
func Open(heapReg, logReg *nvm.Region) (*Engine, error) {
	b, err := engine.Attach("undo", engine.Regions{Main: heapReg, Log: logReg})
	if err != nil {
		return nil, err
	}
	e := newEngine(b)
	if err := b.Reopen(nil, e.Recover); err != nil {
		return nil, err
	}
	return e, nil
}

// Recover rolls incomplete and aborted transactions back from their undo
// copies and completes the deferred frees of committed transactions.
func (e *Engine) Recover() error {
	return e.Log().Recover(func(v intentlog.SlotView) error {
		switch v.State {
		case intentlog.StateCommitted:
			if err := e.RedoFrees(v.Entries); err != nil {
				return err
			}
		case intentlog.StateRunning, intentlog.StateAborted:
			if err := e.Rollback(nil, 0, v.Entries, e.restoreFrom(v.Data)); err != nil {
				return err
			}
		}
		return v.Free()
	})
}

// restoreFrom returns the restore step of a rollback: a write intent's
// object gets its logged old contents back, durably. data reads the slot's
// data area — a live transaction's log, or the slot as recovery found it.
// Object-granularity copies make this idempotent.
func (e *Engine) restoreFrom(data func(dataOff uint32, n int) ([]byte, error)) func(intentlog.Entry) error {
	reg := e.Heap().Region()
	return func(ent intentlog.Entry) error {
		old, err := data(ent.DataOff, int(ent.DataLen))
		if err != nil {
			return err
		}
		blockOff := int(ent.Obj) - heap.BlockHeaderSize
		if err := reg.Write(blockOff, old); err != nil {
			return err
		}
		return reg.Persist(blockOff, len(old))
	}
}

// Begin implements engine.Engine.
func (e *Engine) Begin() (engine.Tx, error) {
	bt, err := e.BeginTx()
	if err != nil {
		return nil, err
	}
	return &tx{BaseTx: bt, e: e}, nil
}

type tx struct {
	engine.BaseTx
	e *Engine
}

// Add copies obj's old contents into the undo log before admitting writes.
// This copy is the critical-path cost Kamino-Tx eliminates.
func (t *tx) Add(obj heap.ObjID) error {
	cls, ok, err := t.Declare(obj)
	if !ok {
		return err
	}
	return t.Admit(obj, cls, t.copyOld(obj, cls))
}

func (t *tx) copyOld(obj heap.ObjID, cls int) error {
	h := t.e.Heap()
	blockOff, blockLen, err := h.Range(obj)
	if err != nil {
		return err
	}
	start := time.Now()
	old, err := h.Region().ReadSlice(blockOff, blockLen)
	if err != nil {
		return err
	}
	if _, err := t.Log().AppendWithData(intentlog.Entry{
		Op:    intentlog.OpWrite,
		Class: uint32(cls),
		Obj:   uint64(obj),
	}, old); err != nil {
		return err
	}
	d := time.Since(start)
	t.e.phCritCopy.Observe(d)
	t.e.critCopy.Add(uint64(blockLen))
	if tr := t.Tracer(); tr != nil {
		t.TraceAppend(obj, intentlog.OpWrite)
		tr.Span(string(obs.PhaseCriticalCopy), t.ID(), d)
	}
	return nil
}

// Free captures the old contents first (via Add), so an abort can restore
// them even if the caller also wrote to the object.
func (t *tx) Free(obj heap.ObjID) error {
	if err := t.Add(obj); err != nil {
		return err
	}
	return t.BaseTx.Free(obj)
}

// Abort restores every modified object from its undo copy.
func (t *tx) Abort() error { return t.AbortWith(t.e.restoreFrom(t.Log().Data)) }
