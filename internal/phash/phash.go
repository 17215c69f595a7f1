// Package phash implements a persistent hash table over the kamino heap
// with separate chaining. Unlike the B+Tree, every operation composes into
// a caller-supplied transaction, which is what the replicated store needs:
// a chain replica executes one operation as exactly one transaction and
// replays it idempotently after recovery.
//
// Each bucket head lives in its own small persistent object, so operations
// on different buckets have disjoint write-sets — under Kamino-Tx-Chain
// that keeps them independent transactions that pipeline down the chain.
// The directory object (bucket pointer array) is immutable after Create.
package phash

import (
	"encoding/binary"
	"fmt"

	"kaminotx/internal/heap"
	"kaminotx/kamino"
)

// Layout:
//
//	dir object:    nbuckets u64, then [nbuckets] bucket ObjIDs (immutable)
//	bucket object: head ObjID
//	entry object:  key u64, next ObjID, vcap u32, vlen u32, value bytes
const (
	dirOffN       = 0
	dirOffBuckets = 8

	bktOffHead = 0
	bktSize    = 16

	entOffKey  = 0
	entOffNext = 8
	entOffVCap = 16
	entOffVLen = 20
	entOffVal  = 24
)

// Map is a persistent hash table bound to a pool.
type Map struct {
	pool *kamino.Pool
	dir  kamino.ObjID
	n    int

	// buckets caches the immutable bucket ObjIDs.
	buckets []kamino.ObjID
}

// MaxBuckets is the largest directory a single heap allocation holds.
const MaxBuckets = (heap.MaxAlloc - dirOffBuckets) / 8

// Create allocates a map with nbuckets chains. Bucket objects are created
// in chunked transactions to respect the intent-log write-set bound; the
// directory is allocated last and filled by the transaction that allocates
// it. A fresh allocation has no old contents to copy, so no engine ever
// declares an intent on the directory and Create costs the same per bucket
// whatever nbuckets is — an undo or copy-on-write Add of the directory
// would have to fit it in a log slot's data area. Nothing is reachable
// until the caller links Dir somewhere, so a crash inside Create leaks the
// buckets made so far and no more.
func Create(pool *kamino.Pool, nbuckets int) (*Map, error) {
	if nbuckets <= 0 || nbuckets > MaxBuckets {
		return nil, fmt.Errorf("phash: nbuckets %d not in 1..%d", nbuckets, MaxBuckets)
	}
	m := &Map{pool: pool, n: nbuckets, buckets: make([]kamino.ObjID, nbuckets)}
	const chunk = 32
	for start := 0; start < nbuckets; start += chunk {
		end := min(start+chunk, nbuckets)
		if err := pool.Update(func(tx *kamino.Tx) error {
			for i := start; i < end; i++ {
				b, err := tx.Alloc(bktSize)
				if err != nil {
					return err
				}
				m.buckets[i] = b
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	img := make([]byte, dirOffBuckets+nbuckets*8)
	binary.LittleEndian.PutUint64(img[dirOffN:], uint64(nbuckets))
	for i, b := range m.buckets {
		binary.LittleEndian.PutUint64(img[dirOffBuckets+i*8:], uint64(b))
	}
	err := pool.Update(func(tx *kamino.Tx) error {
		dir, err := tx.Alloc(len(img))
		if err != nil {
			return err
		}
		m.dir = dir
		return tx.Write(dir, 0, img)
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Attach binds to an existing map by its directory object.
func Attach(pool *kamino.Pool, dir kamino.ObjID) (*Map, error) {
	m := &Map{pool: pool, dir: dir}
	err := pool.View(func(tx *kamino.Tx) error {
		n, err := tx.Uint64(dir, dirOffN)
		if err != nil {
			return err
		}
		if n == 0 || n > MaxBuckets {
			return fmt.Errorf("phash: object %d is not a map directory", dir)
		}
		m.n = int(n)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := m.loadBuckets(); err != nil {
		return nil, err
	}
	return m, nil
}

// loadBuckets caches the immutable bucket pointers.
func (m *Map) loadBuckets() error {
	m.buckets = make([]kamino.ObjID, m.n)
	return m.pool.View(func(tx *kamino.Tx) error {
		for i := 0; i < m.n; i++ {
			b, err := tx.Ptr(m.dir, dirOffBuckets+i*8)
			if err != nil {
				return err
			}
			if b == kamino.Nil {
				return fmt.Errorf("phash: bucket %d pointer is nil", i)
			}
			m.buckets[i] = b
		}
		return nil
	})
}

// Dir returns the persistent directory object id.
func (m *Map) Dir() kamino.ObjID { return m.dir }

func (m *Map) bucket(key uint64) kamino.ObjID {
	return m.buckets[m.BucketIndex(key)]
}

// BucketIndex returns the bucket a key hashes to. Multi-key transactions
// should touch keys in ascending (BucketIndex, key) order: operations on
// the same bucket share chain objects, so a canonical order avoids
// deadlocks between concurrent transactions.
func (m *Map) BucketIndex(key uint64) int {
	h := key * 0x9e3779b97f4a7c15
	return int(h % uint64(m.n))
}

// Get reads key's value within tx.
func (m *Map) Get(tx *kamino.Tx, key uint64) ([]byte, bool, error) {
	cur, err := tx.Ptr(m.bucket(key), bktOffHead)
	if err != nil {
		return nil, false, err
	}
	for cur != kamino.Nil {
		b, err := tx.Read(cur)
		if err != nil {
			return nil, false, err
		}
		if binary.LittleEndian.Uint64(b[entOffKey:]) == key {
			vlen := int(binary.LittleEndian.Uint32(b[entOffVLen:]))
			if entOffVal+vlen > len(b) {
				return nil, false, fmt.Errorf("phash: corrupt entry %d", cur)
			}
			out := make([]byte, vlen)
			copy(out, b[entOffVal:entOffVal+vlen])
			return out, true, nil
		}
		cur = kamino.ObjID(binary.LittleEndian.Uint64(b[entOffNext:]))
	}
	return nil, false, nil
}

// Put inserts or updates key within tx. Values that fit the existing entry
// update in place; larger ones replace the entry object.
//
// Writers take the bucket's write lock up front, so writers to the same
// bucket are mutually exclusive for the whole operation. Without this,
// interleaved chain walks that upgrade entry read locks can deadlock. The
// lock alone: the bucket's write intent is declared only on the paths that
// rewrite its head pointer, so an in-place overwrite logs, flushes and backs
// up the entry and nothing else.
func (m *Map) Put(tx *kamino.Tx, key uint64, val []byte) error {
	bkt := m.bucket(key)
	if err := tx.Lock(bkt); err != nil {
		return err
	}
	head, err := tx.Ptr(bkt, bktOffHead)
	if err != nil {
		return err
	}
	var prev kamino.ObjID
	cur := head
	for cur != kamino.Nil {
		b, err := tx.Read(cur)
		if err != nil {
			return err
		}
		if binary.LittleEndian.Uint64(b[entOffKey:]) == key {
			vcap := int(binary.LittleEndian.Uint32(b[entOffVCap:]))
			if err := tx.Add(cur); err != nil {
				return err
			}
			if len(val) <= vcap {
				if err := tx.SetUint32(cur, entOffVLen, uint32(len(val))); err != nil {
					return err
				}
				return tx.Write(cur, entOffVal, val)
			}
			next := kamino.ObjID(binary.LittleEndian.Uint64(b[entOffNext:]))
			repl, err := m.allocEntry(tx, key, val, next)
			if err != nil {
				return err
			}
			if err := tx.Free(cur); err != nil {
				return err
			}
			if prev == kamino.Nil {
				if err := tx.Add(bkt); err != nil {
					return err
				}
				return tx.SetPtr(bkt, bktOffHead, repl)
			}
			if err := tx.Add(prev); err != nil {
				return err
			}
			return tx.SetPtr(prev, entOffNext, repl)
		}
		prev = cur
		cur = kamino.ObjID(binary.LittleEndian.Uint64(b[entOffNext:]))
	}
	ent, err := m.allocEntry(tx, key, val, head)
	if err != nil {
		return err
	}
	if err := tx.Add(bkt); err != nil {
		return err
	}
	return tx.SetPtr(bkt, bktOffHead, ent)
}

func (m *Map) allocEntry(tx *kamino.Tx, key uint64, val []byte, next kamino.ObjID) (kamino.ObjID, error) {
	ent, err := tx.Alloc(entOffVal + len(val))
	if err != nil {
		return kamino.Nil, err
	}
	if err := tx.SetUint64(ent, entOffKey, key); err != nil {
		return kamino.Nil, err
	}
	if err := tx.SetPtr(ent, entOffNext, next); err != nil {
		return kamino.Nil, err
	}
	// Capacity is whatever the size class actually granted.
	b, err := tx.Read(ent)
	if err != nil {
		return kamino.Nil, err
	}
	if err := tx.SetUint32(ent, entOffVCap, uint32(len(b)-entOffVal)); err != nil {
		return kamino.Nil, err
	}
	if err := tx.SetUint32(ent, entOffVLen, uint32(len(val))); err != nil {
		return kamino.Nil, err
	}
	return ent, tx.Write(ent, entOffVal, val)
}

// Delete removes key within tx, reporting whether it was present. Like
// Put, it locks the bucket up front.
func (m *Map) Delete(tx *kamino.Tx, key uint64) (bool, error) {
	bkt := m.bucket(key)
	if err := tx.Lock(bkt); err != nil {
		return false, err
	}
	cur, err := tx.Ptr(bkt, bktOffHead)
	if err != nil {
		return false, err
	}
	var prev kamino.ObjID
	for cur != kamino.Nil {
		b, err := tx.Read(cur)
		if err != nil {
			return false, err
		}
		next := kamino.ObjID(binary.LittleEndian.Uint64(b[entOffNext:]))
		if binary.LittleEndian.Uint64(b[entOffKey:]) == key {
			if prev == kamino.Nil {
				if err := tx.Add(bkt); err != nil {
					return false, err
				}
				if err := tx.SetPtr(bkt, bktOffHead, next); err != nil {
					return false, err
				}
			} else {
				if err := tx.Add(prev); err != nil {
					return false, err
				}
				if err := tx.SetPtr(prev, entOffNext, next); err != nil {
					return false, err
				}
			}
			return true, tx.Free(cur)
		}
		prev = cur
		cur = next
	}
	return false, nil
}

// Count walks every chain and returns the number of entries. O(n); tests
// and tools only.
func (m *Map) Count(tx *kamino.Tx) (int, error) {
	n := 0
	for i := 0; i < m.n; i++ {
		cur, err := tx.Ptr(m.buckets[i], bktOffHead)
		if err != nil {
			return 0, err
		}
		for cur != kamino.Nil {
			n++
			b, err := tx.Read(cur)
			if err != nil {
				return 0, err
			}
			cur = kamino.ObjID(binary.LittleEndian.Uint64(b[entOffNext:]))
		}
	}
	return n, nil
}
