// Package kvstore is the key-value store used by the paper's evaluation: a
// thin layer over the persistent B+Tree exposing the five YCSB operations
// (read, update, insert, read-modify-write, scan). One store instance is
// bound to one pool, so the same store code runs over Kamino-Tx and every
// baseline engine.
package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"kaminotx/internal/pbtree"
	"kaminotx/kamino"
)

// Store is a transactional persistent key-value store.
type Store struct {
	pool *kamino.Pool
	tree *pbtree.Tree
}

// Create builds a fresh store in pool and links its tree meta to the pool
// root (offset 0), so Open can find it after a restart.
func Create(pool *kamino.Pool, order int) (*Store, error) {
	tree, err := pbtree.Create(pool, order)
	if err != nil {
		return nil, err
	}
	err = pool.Update(func(tx *kamino.Tx) error {
		if err := tx.Add(pool.Root()); err != nil {
			return err
		}
		return tx.SetPtr(pool.Root(), 0, tree.Meta())
	})
	if err != nil {
		return nil, err
	}
	return &Store{pool: pool, tree: tree}, nil
}

// ErrNoStore is Open's answer for a pool whose root holds no store.
var ErrNoStore = errors.New("kvstore: pool has no store (root pointer is nil)")

// Open reattaches to the store previously created in pool. The root
// pointer is read physically, as pbtree.Attach reads the tree: Open runs
// before the reopened pool takes traffic.
func Open(pool *kamino.Pool) (*Store, error) {
	b, err := pool.Engine().Heap().Bytes(pool.Root())
	if err != nil {
		return nil, err
	}
	if len(b) < 8 {
		return nil, fmt.Errorf("kvstore: pool root object too small (%d bytes)", len(b))
	}
	meta := kamino.ObjID(binary.LittleEndian.Uint64(b))
	if meta == kamino.Nil {
		return nil, ErrNoStore
	}
	tree, err := pbtree.Attach(pool, meta)
	if err != nil {
		return nil, err
	}
	return &Store{pool: pool, tree: tree}, nil
}

// Pool returns the underlying pool.
func (s *Store) Pool() *kamino.Pool { return s.pool }

// Read returns the value for key (YCSB READ).
func (s *Store) Read(key uint64) ([]byte, bool, error) { return s.tree.Get(key) }

// Insert stores a new or existing key (YCSB INSERT).
func (s *Store) Insert(key uint64, value []byte) error { return s.tree.Put(key, value) }

// Update overwrites key's value (YCSB UPDATE). Like YCSB, an update of an
// absent key inserts it.
func (s *Store) Update(key uint64, value []byte) error { return s.tree.Put(key, value) }

// ReadModifyWrite atomically applies fn to key's current value (YCSB RMW,
// workload F).
func (s *Store) ReadModifyWrite(key uint64, fn func(old []byte, found bool) ([]byte, error)) error {
	return s.tree.Modify(key, fn)
}

// UpdateT is Update returning the engine transaction id that executed
// the write, for joining service-level traces to engine emissions.
func (s *Store) UpdateT(key uint64, value []byte) (uint64, error) { return s.tree.PutT(key, value) }

// Delete removes key.
func (s *Store) Delete(key uint64) (bool, error) { return s.tree.Delete(key) }

// DeleteT is Delete returning the engine transaction id that executed
// the removal.
func (s *Store) DeleteT(key uint64) (bool, uint64, error) { return s.tree.DeleteT(key) }

// Scan returns up to max pairs starting at key (YCSB SCAN).
func (s *Store) Scan(start uint64, max int) ([]pbtree.KV, error) { return s.tree.Scan(start, max) }

// Count returns the number of keys (O(n)).
func (s *Store) Count() (int, error) { return s.tree.Count() }

// Op is one operation of an ApplyBatch call.
type Op struct {
	// Key addresses the record.
	Key uint64
	// Value is the payload to store (ignored for deletes).
	Value []byte
	// Delete removes Key instead of storing Value.
	Delete bool
}

// ApplyBatch applies key-disjoint operations as ONE engine transaction —
// one intent-log slot, one commit persist, one backup reconciliation —
// sorting them by key first (any serialization of concurrent key-disjoint
// operations is valid, and ascending leaf order keeps the underlying
// latching deadlock-free). It inherits pbtree.ApplyBatch's contract: the
// caller must be the store's only concurrent writer (readers are fine),
// keys must be unique within the batch, and a batch that would split a
// tree node aborts, unchanged, with pbtree.ErrBatchNeedsSplit — callers
// fall back to per-operation Insert/Delete, which split correctly. The
// server's batcher (internal/server) halves the batch on any abort, so
// splits and log-slot overflows converge to per-op execution.
func (s *Store) ApplyBatch(ops []Op) error {
	_, err := s.ApplyBatchT(ops)
	return err
}

// ApplyBatchT is ApplyBatch returning the engine transaction id that
// executed (or aborted) the batch.
func (s *Store) ApplyBatchT(ops []Op) (uint64, error) {
	bops := make([]pbtree.BatchOp, len(ops))
	for i, op := range ops {
		bops[i] = pbtree.BatchOp{Key: op.Key, Value: op.Value, Delete: op.Delete}
	}
	sort.Slice(bops, func(i, j int) bool { return bops[i].Key < bops[j].Key })
	return s.tree.ApplyBatchT(bops)
}

// Tree exposes the underlying B+Tree for invariant checks in tests.
func (s *Store) Tree() *pbtree.Tree { return s.tree }
