package pbtree

import (
	"errors"
	"sync"

	"kaminotx/kamino"
)

// BatchOp is one operation of an ApplyBatch call: a put of Value under Key,
// or (with Delete set) a removal of Key.
type BatchOp struct {
	Key    uint64
	Value  []byte
	Delete bool
}

// ErrBatchNeedsSplit aborts an ApplyBatch whose fast path would have to
// restructure the tree (a leaf overflow). The batch transaction rolls back
// without having modified anything; the caller re-applies the operations
// individually (or in smaller batches) through Put/Delete, whose descent
// performs proactive splits.
var ErrBatchNeedsSplit = errors.New("pbtree: batch requires a node split")

// ApplyBatch applies every operation inside ONE engine transaction: one
// intent-log slot, one commit persist, one backup reconciliation for the
// whole batch.
//
// Constraints, enforced by the caller:
//
//   - keys must be unique within the batch and sorted ascending (so leaf
//     write latches are acquired in leaf-chain order, which keeps the
//     batch deadlock-free against concurrent readers);
//   - the caller must be the tree's only concurrent *writer*. Concurrent
//     Get/Scan/Count are safe; a concurrent Put/Delete/Modify or second
//     ApplyBatch is not, because the batch descends internal nodes under
//     read latches (it never splits, so the write-latched descent of the
//     single-op path is unnecessary — but only while nobody else can
//     move nodes).
//
// The fast path refuses to split: an insert into a full leaf aborts the
// whole transaction with ErrBatchNeedsSplit and the tree unchanged, and
// the caller falls back to per-operation execution. Deletes never
// restructure (removal is lazy, as in Delete).
func (t *Tree) ApplyBatch(ops []BatchOp) error {
	_, err := t.ApplyBatchT(ops)
	return err
}

// ApplyBatchT is ApplyBatch returning the engine transaction id that
// executed (or aborted) the batch, for correlating the batch with the
// trace stream. The id is 0 when validation fails before a transaction
// begins.
func (t *Tree) ApplyBatchT(ops []BatchOp) (uint64, error) {
	for i := 1; i < len(ops); i++ {
		if ops[i].Key <= ops[i-1].Key {
			return 0, errors.New("pbtree: batch keys must be unique and ascending")
		}
	}
	// held maps the leaves this batch has write-latched (and possibly
	// written) so far; a later operation landing on the same leaf reuses
	// the latch instead of self-deadlocking, and reads the leaf through
	// the transaction to see the batch's earlier writes.
	held := make(map[kamino.ObjID]bool)
	var un unlockers
	defer un.runAll()
	return t.pool.UpdateT(func(tx *kamino.Tx) error {
		for i := range ops {
			if err := t.batchOne(tx, &un, held, &ops[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// batchOne descends to op's leaf under read latches (internal nodes are
// never modified by a batch) and applies the put or delete there. The leaf
// is write-latched to commit, like the single-operation path.
func (t *Tree) batchOne(tx *kamino.Tx, un *unlockers, held map[kamino.ObjID]bool, op *BatchOp) error {
	t.rootLatch.RLock()
	cur, err := t.rootPtr()
	if err != nil {
		t.rootLatch.RUnlock()
		return err
	}
	// The root pointer only moves on a root split, and splits come only
	// from writers — excluded by the batch contract — so the pointer latch
	// can drop as soon as the root object is known.
	t.rootLatch.RUnlock()

	// Descend under read latches until cur names a leaf. A leaf already
	// held by this batch needs no latch work at all.
	var parent *sync.RWMutex
	releaseParent := func() {
		if parent != nil {
			parent.RUnlock()
			parent = nil
		}
	}
	for !held[cur] {
		l := t.latch(cur)
		l.RLock()
		nd, err := t.nodeView(cur)
		if err != nil {
			l.RUnlock()
			releaseParent()
			return err
		}
		if nd.leaf() {
			// Re-take the latch in write mode. The drop-then-relock gap
			// is safe for the same reason the read-latched descent is:
			// only writers restructure, and this batch is the only one.
			l.RUnlock()
			releaseParent()
			l.Lock()
			held[cur] = true
			un.add(l, true)
			break
		}
		next := nd.child(op.Key)
		releaseParent()
		parent, cur = l, next
	}
	releaseParent()
	if op.Delete {
		_, err := t.deleteFromLeaf(tx, cur, op.Key)
		return err
	}
	// The leaf may be full: putInLeaf aborts the batch rather than insert.
	return t.putInLeaf(tx, cur, op.Key, op.Value, nil)
}
