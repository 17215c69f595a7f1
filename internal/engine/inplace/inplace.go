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

	"kaminotx/internal/engine"
	"kaminotx/internal/heap"
	"kaminotx/internal/intentlog"
	"kaminotx/internal/nvm"
)

// ErrAbortUnsupported reports an Abort on an in-place replica engine.
var ErrAbortUnsupported = errors.New("inplace: abort requires a copy; only the chain head may abort")

// Engine is the in-place chain-replica engine: the shared skeleton, whose
// intent log is the only record Add makes, plus the incomplete transactions
// a reopen could not resolve locally.
type Engine struct {
	*engine.Base

	pending []PendingTx // incomplete transactions found at Open
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
	logCfg.DataBytesPerSlot = 0
	b, err := engine.Format("inplace", engine.Regions{Main: heapReg, Log: logReg}, logCfg)
	if err != nil {
		return nil, err
	}
	return &Engine{Base: b}, nil
}

// Open attaches to existing regions and runs local recovery. If the result
// has pending transactions (PendingRecovery non-empty), the caller MUST
// resolve them via ResolvePending before Begin.
func Open(heapReg, logReg *nvm.Region) (*Engine, error) {
	b, err := engine.Attach("inplace", engine.Regions{Main: heapReg, Log: logReg})
	if err != nil {
		return nil, err
	}
	e := &Engine{Base: b}
	if err := b.Reopen(nil, e.Recover); err != nil {
		return nil, err
	}
	return e, nil
}

// Recover completes committed transactions and collects incomplete ones
// for chain-level resolution.
func (e *Engine) Recover() error {
	e.pending = nil
	return e.Log().Recover(func(v intentlog.SlotView) error {
		switch v.State {
		case intentlog.StateCommitted:
			if err := e.RedoFrees(v.Entries); err != nil {
				return err
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
	reg := e.Heap().Region()
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
	return e.Heap().Rescan()
}

// Begin implements engine.Engine.
func (e *Engine) Begin() (engine.Tx, error) {
	if len(e.pending) > 0 {
		return nil, errors.New("inplace: pending chain recovery not resolved")
	}
	bt, err := e.BeginTx()
	if err != nil {
		return nil, err
	}
	return &tx{bt}, nil
}

type tx struct{ engine.BaseTx }

// Add logs the object's address and nothing else: the chain's neighbours
// are the copies.
func (t *tx) Add(obj heap.ObjID) error {
	cls, ok, err := t.Declare(obj)
	if !ok {
		return err
	}
	return t.Admit(obj, cls, t.Append(intentlog.OpWrite, obj, cls))
}

// Abort succeeds only for read-only transactions (nothing to restore);
// a transaction that modified objects cannot abort without a copy.
func (t *tx) Abort() error {
	if !t.Done() && !t.ReadOnly() {
		return ErrAbortUnsupported
	}
	return t.AbortWith(nil)
}
