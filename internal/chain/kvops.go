package chain

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"kaminotx/internal/phash"
	"kaminotx/kamino"
)

// The replicated key-value store: deterministic, idempotent put/delete plus
// a tail-side get, over the persistent hash table. One operation is exactly
// one transaction on each replica, so recovery replay is exactly-once by
// idempotence.

// KVSetup is a KV chain's Config.Setup. On a fresh pool it creates the hash
// table, identically on every replica, and links it to the pool root; on a
// pool that already holds one — a joiner's transferred image — it attaches
// to it. Either way the map is cached for the replica's operations, so none
// of them, and no client's lock-key extraction, ever looks into the pool to
// find it. The directory is sized to the heap — one bucket per 8 KiB, never
// fewer than 1024 nor more than one allocation holds — so that even a heap
// full of small values averages a handful of entries per chain: a put or a
// tail read walks, and read-locks, every entry ahead of its own.
func KVSetup(pool *kamino.Pool) error {
	var dir kamino.ObjID
	if err := pool.View(func(tx *kamino.Tx) error {
		var err error
		dir, err = tx.Ptr(pool.Root(), 0)
		return err
	}); err != nil {
		return err
	}
	if dir != kamino.Nil {
		m, err := phash.Attach(pool, dir)
		if err != nil {
			return err
		}
		kvMaps.Store(pool, m)
		return nil
	}
	n := pool.Engine().Heap().Region().Size() / (8 << 10)
	m, err := phash.Create(pool, min(max(1024, n), phash.MaxBuckets))
	if err != nil {
		return err
	}
	if err := pool.Update(func(tx *kamino.Tx) error {
		if err := tx.Add(pool.Root()); err != nil {
			return err
		}
		return tx.SetPtr(pool.Root(), 0, m.Dir())
	}); err != nil {
		return err
	}
	kvMaps.Store(pool, m)
	return nil
}

// kvMaps holds each pool's map from KVSetup until Replica.Close drops it.
// A reboot keeps the pool, and the map's cached bucket ids are immutable,
// so the entry outlives the engine underneath it.
var kvMaps sync.Map // *kamino.Pool -> *phash.Map

func kvMap(pool *kamino.Pool) (*phash.Map, error) {
	m, ok := kvMaps.Load(pool)
	if !ok {
		return nil, errors.New("chain: pool has no KV map (KVSetup not run?)")
	}
	return m.(*phash.Map), nil
}

// kvLockKeys extracts the admission-lock key of a put/delete: its hash
// bucket in the pool's map, since operations in the same bucket can touch
// shared chain objects. Malformed args, or a pool without a map, lock
// nothing; the operation itself rejects them at execution.
func kvLockKeys(pool *kamino.Pool, args []byte) []uint64 {
	m, err := kvMap(pool)
	if err != nil || len(args) < 8 {
		return nil
	}
	return []uint64{uint64(m.BucketIndex(binary.LittleEndian.Uint64(args)))}
}

// EncodeKV packs a put's key and value.
func EncodeKV(key uint64, val []byte) []byte {
	out := make([]byte, 8+len(val))
	binary.LittleEndian.PutUint64(out, key)
	copy(out[8:], val)
	return out
}

// EncodeKey packs a bare key.
func EncodeKey(key uint64) []byte {
	var out [8]byte
	binary.LittleEndian.PutUint64(out[:], key)
	return out[:]
}

// NewKVRegistry builds the registry all replicas of a KV chain share.
func NewKVRegistry() *Registry {
	reg := NewRegistry()
	reg.RegisterWrite("put", func(tx *kamino.Tx, pool *kamino.Pool, args []byte) error {
		if len(args) < 8 {
			return fmt.Errorf("chain: short put args")
		}
		m, err := kvMap(pool)
		if err != nil {
			return err
		}
		return m.Put(tx, binary.LittleEndian.Uint64(args), args[8:])
	}, kvLockKeys)
	reg.RegisterWrite("delete", func(tx *kamino.Tx, pool *kamino.Pool, args []byte) error {
		if len(args) < 8 {
			return fmt.Errorf("chain: short delete args")
		}
		m, err := kvMap(pool)
		if err != nil {
			return err
		}
		_, err = m.Delete(tx, binary.LittleEndian.Uint64(args))
		return err
	}, kvLockKeys)
	reg.RegisterRead("get", func(pool *kamino.Pool, args []byte) ([]byte, error) {
		if len(args) < 8 {
			return nil, fmt.Errorf("chain: short get args")
		}
		m, err := kvMap(pool)
		if err != nil {
			return nil, err
		}
		var out []byte
		err = pool.View(func(tx *kamino.Tx) error {
			v, ok, err := m.Get(tx, binary.LittleEndian.Uint64(args))
			if err != nil {
				return err
			}
			if ok {
				out = append([]byte{1}, v...)
			} else {
				out = []byte{0}
			}
			return nil
		})
		return out, err
	})
	return reg
}

// ErrNoHead reports that the client's head resolver found no live head
// replica — the chain is mid-repair. Like a redirect it unwraps to
// ErrNotHead so retry loops treat both the same way.
var ErrNoHead = fmt.Errorf("chain: no live head replica (%w)", ErrNotHead)

// KVClient runs KV operations against a chain's head.
type KVClient struct {
	head func() *Replica
}

// NewKVClient builds a client resolving the head dynamically. The resolver
// may return nil while the chain is repairing; operations then fail with
// ErrNoHead instead of panicking.
func NewKVClient(head func() *Replica) *KVClient {
	return &KVClient{head: head}
}

// Put stores key=val through the chain.
func (c *KVClient) Put(key uint64, val []byte) error {
	h := c.head()
	if h == nil {
		return ErrNoHead
	}
	return h.Submit("put", EncodeKV(key, val))
}

// Delete removes key through the chain.
func (c *KVClient) Delete(key uint64) error {
	h := c.head()
	if h == nil {
		return ErrNoHead
	}
	return h.Submit("delete", EncodeKey(key))
}

// Get reads key at the tail.
func (c *KVClient) Get(key uint64) ([]byte, bool, error) {
	h := c.head()
	if h == nil {
		return nil, false, ErrNoHead
	}
	payload, err := h.Read("get", EncodeKey(key))
	if err != nil {
		return nil, false, err
	}
	if len(payload) == 0 || payload[0] == 0 {
		return nil, false, nil
	}
	return payload[1:], true, nil
}
