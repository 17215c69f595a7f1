// Package pbtree implements the persistent B+Tree the paper's key-value
// store evaluation is built on: an NVML-style transactional B+Tree over the
// kamino object heap.
//
// Concurrency design: navigation uses volatile per-node latches with
// top-down latch coupling and proactive splitting (full children split on
// the way down, so a parent is never modified after its latch is
// released). Internal nodes are read physically under latches; engine-level
// transaction locks are taken only on leaves and value objects, which
// preserves the paper's dependent-transaction semantics at the data level
// while keeping navigation deadlock-free. Clean ancestors are released as
// soon as the next level is latched and known non-full, so operations on
// disjoint subtrees never serialize on the upper levels; latches on nodes
// a transaction has written — split parents and halves, and the target
// leaf — are held until the transaction finishes, so engines which publish
// changes at commit time (copy-on-write) never expose a half-written node
// to a navigating reader.
//
// Each public operation (Get, Put, Delete, Scan) is one transaction.
// Deletes are lazy: keys are removed from leaves without rebalancing, which
// keeps the structure correct (possibly under-full) and is sufficient for
// the paper's workloads.
//
// Nodes are read where they lie. Heap().Bytes and tx.Read return slices
// aliasing the region's volatile image, and a node is examined through a
// view over those bytes (node.go): no level of any descent decodes, copies
// or allocates. The one rule: a view is never touched after the latch that
// covered its read is released or its transaction has ended — from then on
// a writer, a commit-time copy-back or a recycled block may be changing the
// bytes under it — nor after the same transaction has written the node,
// when it shows the new image on the engines that edit in place and the old
// one under copy-on-write. What leaves the package is always a copy
// (decodeValue's). A path that changes a node builds the whole new image
// in a scratch buffer; a split or a fresh node stores it in one write, a
// leaf update stores only the device lines that differ from the old image.
package pbtree

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"kaminotx/internal/obs"
	"kaminotx/kamino"
)

// MinOrder is the smallest supported node fan-out.
const MinOrder = 4

// DefaultOrder gives ~1 KiB nodes, matching the paper's object scale.
const DefaultOrder = 60

// Tree meta object layout.
const (
	metaOffOrder = 0 // u32
	metaOffRoot  = 8 // u64
	metaSize     = 16
)

// Tree is a persistent B+Tree bound to a pool.
type Tree struct {
	pool  *kamino.Pool
	meta  kamino.ObjID
	order int

	// rootLatch guards the root pointer swap (root splits).
	rootLatch sync.RWMutex
	// latches holds one RWMutex per node, created on demand (preseeded
	// by Attach's walk).
	latches sync.Map // kamino.ObjID -> *sync.RWMutex
}

// Create allocates a new empty tree (meta object plus one empty leaf) and
// returns it. Persist the returned Meta() somewhere reachable from the pool
// root to reattach later.
func Create(pool *kamino.Pool, order int) (*Tree, error) {
	if order == 0 {
		order = DefaultOrder
	}
	if order < MinOrder {
		return nil, fmt.Errorf("pbtree: order %d below minimum %d", order, MinOrder)
	}
	t := &Tree{pool: pool, order: order}
	err := pool.Update(func(tx *kamino.Tx) error {
		rootObj, err := t.newImage(true).alloc(tx)
		if err != nil {
			return err
		}
		meta, err := tx.Alloc(metaSize)
		if err != nil {
			return err
		}
		if err := tx.SetUint32(meta, metaOffOrder, uint32(order)); err != nil {
			return err
		}
		if err := tx.SetPtr(meta, metaOffRoot, rootObj); err != nil {
			return err
		}
		t.meta = meta
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Attach binds to an existing tree by its meta object.
//
// Attach is the recovery pipeline's index_attach stage for the tree: it
// walks the whole tree physically, verifying the structural invariants
// (CheckInvariants' walk) and failing on the first violation, preseeds the
// latch map with every node — so the first operations after a restart take
// the Load path instead of racing LoadOrStore inserts — and publishes what
// it counted as the pbtree_{nodes,keys,depth} gauges: attach-time structure
// telemetry, not live counters. The cost lands in the index_attach phase.
//
// Attach reads the image physically and must therefore not race with
// writers — bind to the tree before the pool takes traffic.
func Attach(pool *kamino.Pool, meta kamino.ObjID) (*Tree, error) {
	start := time.Now()
	b, err := pool.Engine().Heap().Bytes(meta)
	if err != nil {
		return nil, err
	}
	if len(b) < metaSize {
		return nil, fmt.Errorf("pbtree: meta object %d too small; not a tree?", meta)
	}
	order := binary.LittleEndian.Uint32(b[metaOffOrder:])
	if order < MinOrder {
		return nil, fmt.Errorf("pbtree: meta object %d has order %d; not a tree?", meta, order)
	}
	t := &Tree{pool: pool, meta: meta, order: int(order)}
	var nodes, keys, depth uint64
	err = t.walk(func(obj kamino.ObjID, nd view, level int) {
		t.latches.Store(obj, &sync.RWMutex{})
		nodes++
		if nd.leaf() {
			keys += uint64(nd.nkeys())
		}
		depth = max(depth, uint64(level))
	})
	if err != nil {
		return nil, err
	}
	reg := pool.Obs()
	reg.Gauge("pbtree_nodes", func() uint64 { return nodes })
	reg.Gauge("pbtree_keys", func() uint64 { return keys })
	reg.Gauge("pbtree_depth", func() uint64 { return depth })
	reg.Phase(obs.PhaseRecoveryIndexAttach).Observe(time.Since(start))
	return t, nil
}

// Meta returns the tree's persistent meta object id.
func (t *Tree) Meta() kamino.ObjID { return t.meta }

// Order returns the node fan-out.
func (t *Tree) Order() int { return t.order }

func (t *Tree) latch(obj kamino.ObjID) *sync.RWMutex {
	if m, ok := t.latches.Load(obj); ok {
		return m.(*sync.RWMutex)
	}
	m, _ := t.latches.LoadOrStore(obj, &sync.RWMutex{})
	return m.(*sync.RWMutex)
}

// heldLatch is one latch an operation holds, and in which mode.
type heldLatch struct {
	l     *sync.RWMutex
	write bool
}

func (h heldLatch) unlock() {
	if h.write {
		h.l.Unlock()
	} else {
		h.l.RUnlock()
	}
}

// unlockers collects the latches to release after the transaction finishes.
// A point operation's few fit the inline array and never reach the heap (a
// slice grown through a pointer would); a scan's spill.
type unlockers struct {
	n     int
	few   [4]heldLatch
	spill []heldLatch
}

// at returns the i-th latch added.
func (u *unlockers) at(i int) *heldLatch {
	if i < len(u.few) {
		return &u.few[i]
	}
	return &u.spill[i-len(u.few)]
}

func (u *unlockers) add(l *sync.RWMutex, write bool) {
	if u.n >= len(u.few) {
		u.spill = append(u.spill, heldLatch{})
	}
	u.n++
	*u.at(u.n - 1) = heldLatch{l, write}
}

// swapLast releases the latch added last and holds l in its place: one step
// of latch coupling.
func (u *unlockers) swapLast(l *sync.RWMutex, write bool) {
	last := u.at(u.n - 1)
	last.unlock()
	*last = heldLatch{l, write}
}

func (u *unlockers) runAll() {
	// Release in reverse acquisition order.
	for i := u.n - 1; i >= 0; i-- {
		u.at(i).unlock()
	}
	*u = unlockers{}
}

// rootPtr reads the current root under the root latch (physically — the
// meta object is only written during root splits, which hold rootLatch
// exclusively through commit).
func (t *Tree) rootPtr() (kamino.ObjID, error) {
	b, err := t.pool.Engine().Heap().Bytes(t.meta)
	if err != nil {
		return kamino.Nil, err
	}
	if len(b) < metaSize {
		return kamino.Nil, fmt.Errorf("pbtree: meta object too small")
	}
	return kamino.ObjID(binary.LittleEndian.Uint64(b[metaOffRoot:])), nil
}

// Get returns the value stored for key.
func (t *Tree) Get(key uint64) ([]byte, bool, error) {
	var val []byte
	var found bool
	var un unlockers
	defer un.runAll()
	err := t.pool.View(func(tx *kamino.Tx) error {
		t.rootLatch.RLock()
		cur, err := t.rootPtr()
		if err != nil {
			t.rootLatch.RUnlock()
			return err
		}
		l := t.latch(cur)
		l.RLock()
		// Latch coupling (as in Delete): each ancestor is released as
		// soon as the next level is latched, so point lookups never
		// pile up on the upper levels. Only the leaf latch is held
		// through the transaction.
		t.rootLatch.RUnlock()
		un.add(l, false)
		for {
			nd, err := t.nodeView(cur)
			if err != nil {
				return err
			}
			if nd.leaf() {
				break
			}
			child := nd.child(key)
			cl := t.latch(child)
			cl.RLock()
			// Release the parent now that the child is latched.
			un.swapLast(cl, false)
			cur = child
		}
		// The leaf is read once, through the transaction: the read lock
		// makes dependent reads wait for pending objects.
		leaf, err := t.nodeViewTx(tx, cur)
		if err != nil {
			return err
		}
		i, ok := leaf.search(key)
		if !ok {
			return nil
		}
		vb, err := tx.Read(leaf.ptr(i))
		if err != nil {
			return err
		}
		val, err = decodeValue(vb)
		found = err == nil
		return err
	})
	return val, found, err
}

// Put inserts or updates key with val.
func (t *Tree) Put(key uint64, val []byte) error {
	_, err := t.PutT(key, val)
	return err
}

// PutT is Put returning the engine transaction id that installed the
// value (the last attempt's id when root splits forced retries).
func (t *Tree) PutT(key uint64, val []byte) (uint64, error) {
	return t.put(key, val, nil)
}

// Modify atomically installs fn(currentValue, found) as key's new value in
// a single transaction — the read-modify-write primitive YCSB workload F
// exercises. fn returning an error aborts the transaction.
func (t *Tree) Modify(key uint64, fn func(old []byte, found bool) ([]byte, error)) error {
	_, err := t.put(key, nil, fn)
	return err
}

// modifyFn computes a key's new value from its current one. Nil stands for
// a plain put, which never decodes (copies) the value it overwrites.
type modifyFn func(old []byte, found bool) ([]byte, error)

// put stores val — or fn's result, when fn is non-nil — under key,
// retrying while the root has to be split first.
func (t *Tree) put(key uint64, val []byte, fn modifyFn) (uint64, error) {
	for {
		txid, retry, err := t.tryPut(key, val, fn)
		if err != nil {
			return txid, err
		}
		if !retry {
			return txid, nil
		}
	}
}

// tryPut performs one insert attempt; it reports retry=true when the root
// was full and had to be split (the operation restarts afterwards).
func (t *Tree) tryPut(key uint64, val []byte, fn modifyFn) (txid uint64, retry bool, err error) {
	var un unlockers
	defer un.runAll()
	txid, err = t.pool.UpdateT(func(tx *kamino.Tx) error {
		t.rootLatch.RLock()
		rootObj, err := t.rootPtr()
		if err != nil {
			t.rootLatch.RUnlock()
			return err
		}
		rl := t.latch(rootObj)
		rl.Lock()
		root, err := t.nodeView(rootObj)
		if err != nil {
			rl.Unlock()
			t.rootLatch.RUnlock()
			return err
		}
		if root.nkeys() == t.order {
			// Root is full: upgrade to the exclusive root latch and
			// split, then retry the whole operation.
			rl.Unlock()
			t.rootLatch.RUnlock()
			if err := t.splitRoot(rootObj); err != nil {
				return err
			}
			retry = true
			return nil
		}
		// The root pointer cannot move while this descent holds the
		// root node's latch (splitRoot latches the old root node), so
		// the pointer latch is released here rather than at commit.
		t.rootLatch.RUnlock()
		return t.descendPut(tx, &un, rootObj, root, false, key, val, fn)
	})
	return txid, retry, err
}

// splitRoot splits a full root in its own transaction under the exclusive
// root latch.
func (t *Tree) splitRoot(oldRoot kamino.ObjID) error {
	t.rootLatch.Lock()
	defer t.rootLatch.Unlock()
	cur, err := t.rootPtr()
	if err != nil {
		return err
	}
	if cur != oldRoot {
		return nil // someone else already split it
	}
	l := t.latch(oldRoot)
	l.Lock()
	defer l.Unlock()
	return t.pool.Update(func(tx *kamino.Tx) error {
		nd, err := t.nodeView(oldRoot)
		if err != nil {
			return err
		}
		if nd.nkeys() < t.order {
			return nil // shrank in the meantime (update path)
		}
		sep, rightObj, err := t.splitChild(tx, oldRoot, nd)
		if err != nil {
			return err
		}
		root := t.newImage(false)
		root.addKey(sep)
		root.addPtr(oldRoot)
		root.addPtr(rightObj)
		newRoot, err := root.alloc(tx)
		if err != nil {
			return err
		}
		if err := tx.Add(t.meta); err != nil {
			return err
		}
		return tx.SetPtr(t.meta, metaOffRoot, newRoot)
	})
}

// splitChild splits the full node nd (already latched, object id obj) in
// half, writing both halves inside tx, and returns the separator key and the
// new right sibling. The caller inserts the separator into the parent. The
// left half overwrites obj, so nd is spent on return.
func (t *Tree) splitChild(tx *kamino.Tx, obj kamino.ObjID, nd view) (uint64, kamino.ObjID, error) {
	n, leaf := nd.nkeys(), nd.leaf()
	// A leaf keeps its separator as the right half's first key; an internal
	// node moves it up, and both its halves have one more child than keys.
	mid, rightFrom, extra := (n+1)/2, (n+1)/2, 0
	if !leaf {
		mid, rightFrom, extra = n/2, n/2+1, 1
	}
	sep := nd.key(mid)
	right := t.newImage(leaf)
	right.addKeys(nd, rightFrom, n)
	right.addPtrs(nd, rightFrom, n+extra)
	if leaf {
		right.setNext(nd.next())
	}
	rightObj, err := right.alloc(tx)
	if err != nil {
		return 0, kamino.Nil, err
	}
	left := t.newImage(leaf)
	left.addKeys(nd, 0, mid)
	left.addPtrs(nd, 0, mid+extra)
	if leaf {
		left.setNext(rightObj)
	}
	if err := tx.Add(obj); err != nil {
		return 0, kamino.Nil, err
	}
	if err := left.store(tx, obj); err != nil {
		return 0, kamino.Nil, err
	}
	return sep, rightObj, nil
}

// descendPut walks from a latched non-full node down to the leaf,
// proactively splitting full children, then performs the leaf update.
// cur is latched (exclusively) and not full; curDirty reports whether this
// transaction has already written cur.
//
// Latch coupling: a clean ancestor is unlocked as soon as the next node
// down is latched and guaranteed non-full — at that point nothing deeper
// can modify it, so holding it would only serialize unrelated writers
// (with the root at the top, holding every latch to commit degenerates
// into one writer at a time through the whole tree). Dirty nodes — the
// parent and halves of a proactive split, and the leaf — keep their
// latches until the transaction finishes, because engines that publish
// writes at commit time (copy-on-write) must not expose a latched-free
// node whose physical image is mid-replacement.
func (t *Tree) descendPut(tx *kamino.Tx, un *unlockers, curObj kamino.ObjID, cur view, curDirty bool, key uint64, val []byte, fn modifyFn) error {
	curLatch := t.latch(curObj)
	for !cur.leaf() {
		childObj := cur.child(key)
		cl := t.latch(childObj)
		cl.Lock()
		child, err := t.nodeView(childObj)
		childDirty := false
		if err == nil && child.nkeys() == t.order {
			// Proactive split: parent (cur) is latched and not
			// full, so the separator insertion is safe.
			var sep uint64
			var rightObj kamino.ObjID
			if sep, rightObj, err = t.splitChild(tx, childObj, child); err == nil {
				err = t.insertChild(tx, curObj, cur, sep, rightObj)
			}
			if err == nil {
				curDirty, childDirty = true, true
				if key >= sep {
					// Continue into the new right sibling. The left
					// half was written by this transaction, so its
					// latch is held to commit like any dirty node.
					un.add(cl, true)
					childObj = rightObj
					cl = t.latch(childObj)
					cl.Lock()
				}
				// Both halves were written by this transaction, so the
				// re-read must go through it (copy-on-write keeps the
				// new contents in the shadow until commit).
				child, err = t.nodeViewTx(tx, childObj)
			}
		}
		if err != nil {
			cl.Unlock()
		}
		// The descent has moved past cur (or failed): a clean node unlocks
		// now, a dirty one at commit.
		if curDirty {
			un.add(curLatch, true)
		} else {
			curLatch.Unlock()
		}
		if err != nil {
			return err
		}
		curObj, cur, curLatch, curDirty = childObj, child, cl, childDirty
	}
	// The leaf is written, or read through the transaction on behalf of a
	// write to one of its values: hold its latch to commit either way.
	un.add(curLatch, true)
	return t.putInLeaf(tx, curObj, key, val, fn)
}

// insertChild stores separator sep and the child right of it into the
// latched, non-full internal node cur, which is spent on return.
func (t *Tree) insertChild(tx *kamino.Tx, curObj kamino.ObjID, cur view, sep uint64, right kamino.ObjID) error {
	i, _ := cur.search(sep)
	n := cur.nkeys()
	im := t.newImage(false)
	im.addKeys(cur, 0, i)
	im.addKey(sep)
	im.addKeys(cur, i, n)
	im.addPtrs(cur, 0, i+1)
	im.addPtr(right)
	im.addPtrs(cur, i+1, n+1)
	if err := tx.Add(curObj); err != nil {
		return err
	}
	return im.store(tx, curObj)
}

// putInLeaf inserts or updates key in the latched leaf, storing val, or
// fn(oldValue, found) when fn is non-nil. A new key needs room: the
// single-operation descent makes it by splitting on the way down, and a
// batch, which never splits, gets ErrBatchNeedsSplit with nothing changed.
//
// The leaf is read once, through the transaction, before any intent on it is
// declared, because the common case never changes it: a value that fits its
// object is overwritten in place, and the transaction logs, locks, flushes
// and backs up the value object alone. Only the two paths that store into
// the leaf — an outgrown value, a new key — declare its write intent.
func (t *Tree) putInLeaf(tx *kamino.Tx, leafObj kamino.ObjID, key uint64, val []byte, fn modifyFn) error {
	leaf, err := t.nodeViewTx(tx, leafObj)
	if err != nil {
		return err
	}
	n := leaf.nkeys()
	i, found := leaf.search(key)
	if !found {
		if n >= t.order {
			return ErrBatchNeedsSplit
		}
		if fn != nil {
			if val, err = fn(nil, false); err != nil {
				return err
			}
		}
		valObj, err := tx.Alloc(valueSize(len(val)))
		if err != nil {
			return err
		}
		if err := t.writeValue(tx, valObj, val); err != nil {
			return err
		}
		im := t.newImage(true)
		im.addKeys(leaf, 0, i)
		im.addKey(key)
		im.addKeys(leaf, i, n)
		im.addPtrs(leaf, 0, i)
		im.addPtr(valObj)
		im.addPtrs(leaf, i, n)
		return t.storeLeaf(tx, leafObj, leaf, im)
	}
	valObj := leaf.ptr(i)
	if err := tx.Add(valObj); err != nil {
		return err
	}
	old, err := tx.Read(valObj)
	if err != nil {
		return err
	}
	if fn != nil {
		oldVal, err := decodeValue(old)
		if err != nil {
			return err
		}
		if val, err = fn(oldVal, true); err != nil {
			return err
		}
	}
	if valueSize(len(val)) <= len(old) {
		return t.writeValue(tx, valObj, val)
	}
	// Outgrown: move the value to a larger object and repoint the leaf at
	// it.
	newVal, err := tx.Alloc(valueSize(len(val)))
	if err != nil {
		return err
	}
	if err := t.writeValue(tx, newVal, val); err != nil {
		return err
	}
	if err := tx.Free(valObj); err != nil {
		return err
	}
	im := t.newImage(true)
	im.addKeys(leaf, 0, n)
	im.addPtrs(leaf, 0, i)
	im.addPtr(newVal)
	im.addPtrs(leaf, i+1, n)
	return t.storeLeaf(tx, leafObj, leaf, im)
}

// storeLeaf declares the write intent on a leaf already read through tx (as
// old) and stores its new keys and values, the leaf chain as it was: only
// the lines that change are stored, so only they are flushed and backed up.
func (t *Tree) storeLeaf(tx *kamino.Tx, leafObj kamino.ObjID, old view, im *image) error {
	im.setNext(old.next())
	if err := tx.Add(leafObj); err != nil {
		return err
	}
	return im.storeChanged(tx, leafObj, old)
}

// deleteFromLeaf removes key from the latched leaf, reporting whether it was
// there. Removal is lazy: the leaf may be left under-full.
func (t *Tree) deleteFromLeaf(tx *kamino.Tx, leafObj kamino.ObjID, key uint64) (bool, error) {
	if err := tx.Add(leafObj); err != nil {
		return false, err
	}
	leaf, err := t.nodeViewTx(tx, leafObj)
	if err != nil {
		return false, err
	}
	i, found := leaf.search(key)
	if !found {
		return false, nil
	}
	if err := tx.Free(leaf.ptr(i)); err != nil {
		return false, err
	}
	n := leaf.nkeys()
	im := t.newImage(true)
	im.addKeys(leaf, 0, i)
	im.addKeys(leaf, i+1, n)
	im.addPtrs(leaf, 0, i)
	im.addPtrs(leaf, i+1, n)
	return true, t.storeLeaf(tx, leafObj, leaf, im)
}

// Delete removes key, reporting whether it was present. Deletion is lazy
// (no rebalancing). The descent uses exclusive latch coupling (releasing
// each parent as soon as the child is latched) so the target leaf cannot be
// split out from under the operation.
func (t *Tree) Delete(key uint64) (bool, error) {
	deleted, _, err := t.DeleteT(key)
	return deleted, err
}

// DeleteT is Delete returning the engine transaction id that executed
// the removal (the transaction commits empty when the key was absent).
func (t *Tree) DeleteT(key uint64) (bool, uint64, error) {
	var deleted bool
	var un unlockers
	defer un.runAll()
	txid, err := t.pool.UpdateT(func(tx *kamino.Tx) error {
		t.rootLatch.RLock()
		cur, err := t.rootPtr()
		if err != nil {
			t.rootLatch.RUnlock()
			return err
		}
		l := t.latch(cur)
		l.Lock()
		un.add(&t.rootLatch, false)
		un.add(l, true)
		for {
			nd, err := t.nodeView(cur)
			if err != nil {
				return err
			}
			if nd.leaf() {
				break
			}
			child := nd.child(key)
			cl := t.latch(child)
			cl.Lock()
			// Delete never modifies internal nodes: release the
			// parent immediately.
			un.swapLast(cl, true)
			cur = child
		}
		deleted, err = t.deleteFromLeaf(tx, cur, key)
		return err
	})
	return deleted, txid, err
}

// KV is one key-value pair returned by Scan.
type KV struct {
	Key   uint64
	Value []byte
}

// Scan returns up to max pairs with keys >= start, in ascending order,
// walking the leaf chain.
func (t *Tree) Scan(start uint64, max int) ([]KV, error) {
	var out []KV
	var un unlockers
	defer un.runAll()
	err := t.pool.View(func(tx *kamino.Tx) error {
		t.rootLatch.RLock()
		un.add(&t.rootLatch, false)
		cur, err := t.rootPtr()
		if err != nil {
			return err
		}
		l := t.latch(cur)
		l.RLock()
		un.add(l, false)
		for {
			nd, err := t.nodeView(cur)
			if err != nil {
				return err
			}
			if nd.leaf() {
				break
			}
			child := nd.child(start)
			cl := t.latch(child)
			cl.RLock()
			un.add(cl, false)
			cur = child
		}
		for cur != kamino.Nil && len(out) < max {
			leaf, err := t.nodeViewTx(tx, cur)
			if err != nil {
				return err
			}
			first, _ := leaf.search(start)
			for i := first; i < leaf.nkeys() && len(out) < max; i++ {
				vb, err := tx.Read(leaf.ptr(i))
				if err != nil {
					return err
				}
				val, err := decodeValue(vb)
				if err != nil {
					return err
				}
				out = append(out, KV{Key: leaf.key(i), Value: val})
			}
			next := leaf.next()
			if next != kamino.Nil && len(out) < max {
				nl := t.latch(next)
				nl.RLock()
				un.add(nl, false)
			}
			cur = next
		}
		return nil
	})
	return out, err
}

// Count walks the leaf chain and returns the number of keys. O(n); intended
// for tests and tools.
func (t *Tree) Count() (int, error) {
	n := 0
	var un unlockers
	defer un.runAll()
	err := t.pool.View(func(tx *kamino.Tx) error {
		t.rootLatch.RLock()
		un.add(&t.rootLatch, false)
		cur, err := t.rootPtr()
		if err != nil {
			return err
		}
		for {
			l := t.latch(cur)
			l.RLock()
			un.add(l, false)
			nd, err := t.nodeView(cur)
			if err != nil {
				return err
			}
			if nd.leaf() {
				break
			}
			cur = nd.ptr(0)
		}
		for cur != kamino.Nil {
			leaf, err := t.nodeView(cur)
			if err != nil {
				return err
			}
			n += leaf.nkeys()
			next := leaf.next()
			if next != kamino.Nil {
				nl := t.latch(next)
				nl.RLock()
				un.add(nl, false)
			}
			cur = next
		}
		return nil
	})
	return n, err
}

// CheckInvariants validates structural invariants (sorted keys, separator
// bounds). Test helper; not concurrency-safe with writers.
func (t *Tree) CheckInvariants() error {
	return t.walk(func(kamino.ObjID, view, int) {})
}

// walk visits every node from the root down (level 1), checking each
// against the key range its parent's separators allow before calling visit,
// and stops at the first violation.
func (t *Tree) walk(visit func(obj kamino.ObjID, nd view, level int)) error {
	root, err := t.rootPtr()
	if err != nil {
		return err
	}
	return t.check(root, 1, 0, ^uint64(0), true, visit)
}

func (t *Tree) check(obj kamino.ObjID, level int, lo, hi uint64, loOpen bool, visit func(kamino.ObjID, view, int)) error {
	nd, err := t.nodeView(obj)
	if err != nil {
		return err
	}
	n := nd.nkeys()
	for i := 1; i < n; i++ {
		if nd.key(i-1) >= nd.key(i) {
			return fmt.Errorf("pbtree: node %d keys not strictly sorted", obj)
		}
	}
	for i := 0; i < n; i++ {
		if k := nd.key(i); (!loOpen && k < lo) || k > hi {
			return fmt.Errorf("pbtree: node %d key %d outside [%d, %d]", obj, k, lo, hi)
		}
	}
	visit(obj, nd, level)
	if nd.leaf() {
		return nil
	}
	curLo, curOpen := lo, loOpen
	for i := 0; i <= n; i++ {
		curHi := hi
		if i < n {
			curHi = nd.key(i) - 1
		}
		if err := t.check(nd.ptr(i), level+1, curLo, curHi, curOpen, visit); err != nil {
			return err
		}
		if i < n {
			curLo, curOpen = nd.key(i), false
		}
	}
	return nil
}
