// Package cow implements the copy-on-write baseline (paper Figure 2,
// middle): TX_ADD copies the object into a persistent shadow area and the
// transaction edits the shadow; at commit the shadow is applied back to the
// original. Both the initial copy and the copy-back happen around the
// critical path, which is the overhead profile of NVM-CoW-style systems
// (Mnemosyne, CDDS).
package cow

import (
	"fmt"
	"time"

	"kaminotx/internal/engine"
	"kaminotx/internal/heap"
	"kaminotx/internal/intentlog"
	"kaminotx/internal/nvm"
	"kaminotx/internal/obs"
)

// Engine is the copy-on-write engine: the shared skeleton plus the shadow
// copy Add makes, the edits routed to it, and the copy-back at commit.
type Engine struct {
	*engine.Base

	critCopy   *obs.Counter
	phCritCopy *obs.PhaseStat // shadow creation copy
	phIntent   *obs.PhaseStat // pre-marker shadow/alloc persist
	phCopyBack *obs.PhaseStat // post-commit shadow-to-original apply
}

func newEngine(b *engine.Base) *Engine {
	return &Engine{
		Base:       b,
		critCopy:   b.Obs().Counter("bytes_copied_critical"),
		phCritCopy: b.Obs().Phase(obs.PhaseCriticalCopy),
		phIntent:   b.Obs().Phase(obs.PhaseIntentPersist),
		phCopyBack: b.Obs().Phase(obs.PhaseCopyBack),
	}
}

// New formats a fresh heap and log and returns an engine over them.
func New(heapReg, logReg *nvm.Region, logCfg intentlog.Config) (*Engine, error) {
	b, err := engine.Format("cow", engine.Regions{Main: heapReg, Log: logReg}, logCfg)
	if err != nil {
		return nil, err
	}
	return newEngine(b), nil
}

// Open attaches to existing regions, runs crash recovery, and rebuilds the
// heap free lists.
func Open(heapReg, logReg *nvm.Region) (*Engine, error) {
	b, err := engine.Attach("cow", engine.Regions{Main: heapReg, Log: logReg})
	if err != nil {
		return nil, err
	}
	e := newEngine(b)
	if err := b.Reopen(nil, e.Recover); err != nil {
		return nil, err
	}
	return e, nil
}

// Recover finishes committed transactions (shadow copy-back and deferred
// frees — both idempotent) and unwinds the allocations of incomplete ones.
// Originals are untouched until commit, so incomplete transactions need no
// data restoration.
func (e *Engine) Recover() error {
	return e.Log().Recover(func(v intentlog.SlotView) error {
		switch v.State {
		case intentlog.StateCommitted:
			if err := e.applyShadows(v.Entries, v.Data); err != nil {
				return err
			}
			if err := e.RedoFrees(v.Entries); err != nil {
				return err
			}
		case intentlog.StateRunning, intentlog.StateAborted:
			if err := e.Rollback(nil, 0, v.Entries, nil); err != nil {
				return err
			}
		}
		return v.Free()
	})
}

// applyShadows copies every shadow back onto its original and persists it.
func (e *Engine) applyShadows(entries []intentlog.Entry, data func(uint32, int) ([]byte, error)) error {
	reg := e.Heap().Region()
	for _, ent := range entries {
		if ent.Op != intentlog.OpWrite {
			continue
		}
		shadow, err := data(ent.DataOff, int(ent.DataLen))
		if err != nil {
			return err
		}
		blockOff := int(ent.Obj) - heap.BlockHeaderSize
		if err := reg.Write(blockOff, shadow); err != nil {
			return err
		}
		if err := reg.Flush(blockOff, len(shadow)); err != nil {
			return err
		}
	}
	reg.Fence()
	return nil
}

// Begin implements engine.Engine.
func (e *Engine) Begin() (engine.Tx, error) {
	bt, err := e.BeginTx()
	if err != nil {
		return nil, err
	}
	return &tx{BaseTx: bt, e: e}, nil
}

// shadow locates an object's editable copy in the log's data area.
type shadow struct {
	regionOff int // offset of the block copy in the log region
	blockLen  int
}

// tx keeps, beside the skeleton's write set (which holds the locks), the
// shadow of every object Add was called on. Objects allocated by this
// transaction have none: they are written directly, being invisible until
// commit, and an abort unwinds the whole allocation.
type tx struct {
	engine.BaseTx
	e       *Engine
	shadows map[heap.ObjID]shadow // made by the first Add
}

// Add creates the object's persistent shadow copy in the critical path.
func (t *tx) Add(obj heap.ObjID) error {
	cls, ok, err := t.Declare(obj)
	if !ok {
		return err
	}
	return t.Admit(obj, cls, t.makeShadow(obj, cls))
}

func (t *tx) makeShadow(obj heap.ObjID, cls int) error {
	blockOff, blockLen, err := t.e.Heap().Range(obj)
	if err != nil {
		return err
	}
	start := time.Now()
	regionOff, dataOff, err := t.Log().ReserveData(blockLen)
	if err != nil {
		return err
	}
	logReg := t.e.Log().Region()
	if err := nvm.Copy(logReg, regionOff, t.e.Heap().Region(), blockOff, blockLen); err != nil {
		return err
	}
	if err := logReg.Persist(regionOff, blockLen); err != nil {
		return err
	}
	if err := t.Log().Append(intentlog.Entry{
		Op:      intentlog.OpWrite,
		Class:   uint32(cls),
		Obj:     uint64(obj),
		DataOff: dataOff,
		DataLen: uint32(blockLen),
	}); err != nil {
		return err
	}
	d := time.Since(start)
	t.e.phCritCopy.Observe(d)
	t.e.critCopy.Add(uint64(blockLen))
	if tr := t.Tracer(); tr != nil {
		t.TraceAppend(obj, intentlog.OpWrite)
		tr.Span(string(obs.PhaseCriticalCopy), t.ID(), d)
	}
	if t.shadows == nil {
		t.shadows = make(map[heap.ObjID]shadow)
	}
	t.shadows[obj] = shadow{regionOff: regionOff, blockLen: blockLen}
	return nil
}

// Write edits the shadow, not the original.
func (t *tx) Write(obj heap.ObjID, off int, data []byte) error {
	sh, ok := t.shadows[obj]
	if !ok || t.Done() {
		return t.BaseTx.Write(obj, off, data)
	}
	cls := sh.blockLen - heap.BlockHeaderSize
	if off < 0 || off+len(data) > cls {
		return fmt.Errorf("%w: write [%d,%d) in object of %d bytes",
			heap.ErrOutOfObject, off, off+len(data), cls)
	}
	return t.e.Log().Region().Write(sh.regionOff+heap.BlockHeaderSize+off, data)
}

// Read returns the transaction's view: the shadow if obj has one, else the
// original (under a read lock unless obj is in the write set).
func (t *tx) Read(obj heap.ObjID) ([]byte, error) {
	sh, ok := t.shadows[obj]
	if !ok || t.Done() {
		return t.BaseTx.Read(obj)
	}
	return t.e.Log().Region().ReadSlice(sh.regionOff+heap.BlockHeaderSize, sh.blockLen-heap.BlockHeaderSize)
}

// Commit makes the shadows and the fresh allocations durable before the
// commit record — recovery replays the copy-back from them — and after it
// applies the shadows to the originals (the paper's "copy to original").
func (t *tx) Commit() error {
	if t.Done() {
		return engine.ErrTxDone
	}
	if t.ReadOnly() {
		return t.Finish()
	}
	logReg := t.e.Log().Region()
	heapReg := t.e.Heap().Region()
	start := time.Now()
	for _, sh := range t.shadows {
		if err := logReg.Flush(sh.regionOff, sh.blockLen); err != nil {
			return err
		}
	}
	logReg.Fence()
	for obj, ws := range t.WriteSet() {
		// Writable without a shadow: allocated by this transaction.
		if _, shadowed := t.shadows[obj]; ws.Writable && !shadowed {
			if err := ws.Dirty.Flush(heapReg, obj); err != nil {
				return err
			}
		}
	}
	heapReg.Fence()
	at := time.Now()
	d := at.Sub(start)
	t.e.phIntent.Observe(d)
	tr := t.Tracer()
	tr.Span(string(obs.PhaseIntentPersist), t.ID(), d)
	at, err := t.PersistMarker(at)
	if err != nil {
		return err
	}
	entries, err := t.Log().Entries()
	if err != nil {
		return err
	}
	if err := t.e.applyShadows(entries, t.Log().Data); err != nil {
		return err
	}
	d = time.Since(at)
	t.e.phCopyBack.Observe(d)
	tr.Span(string(obs.PhaseCopyBack), t.ID(), d)
	for _, sh := range t.shadows {
		t.e.critCopy.Add(uint64(sh.blockLen))
	}
	return t.Finish()
}

// Abort has nothing to restore: the originals were never edited.
func (t *tx) Abort() error { return t.AbortWith(nil) }
