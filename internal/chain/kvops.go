package chain

import (
	"encoding/binary"
	"fmt"
	"slices"

	"kaminotx/internal/phash"
	"kaminotx/internal/pqueue"
	"kaminotx/internal/transport"
	"kaminotx/kamino"
)

// The replicated key-value store: deterministic, idempotent put/delete plus
// a tail-side get, over the persistent hash table. One operation is exactly
// one transaction on each replica, so recovery replay is exactly-once by
// idempotence. A record's Name is its operation and its Args the 8-byte key
// followed, for a put, by the value.
//
// The head's ring keeps a put as a reference (opPutRef, the key alone): the
// value is in the head's store, and a resend reads it back from there
// (expand). A reference is never sent, so apply knows no such operation.
const (
	opPut    = "put"
	opDelete = "delete"
	opPutRef = "put*"
)

// kvSetup creates the hash table on a fresh pool, identically on every
// replica, and links it to the pool root; on a pool that already holds one
// — a joiner's transferred image — it attaches to it. The replica keeps the
// map, so none of its operations, and no client's lock-key extraction, ever
// looks into the pool to find it. The directory is sized to the heap — one
// bucket per 8 KiB, never fewer than 1024 nor more than one allocation
// holds — so that even a heap full of small values averages a handful of
// entries per chain: a put or a tail read walks, and read-locks, every
// entry ahead of its own.
func kvSetup(pool *kamino.Pool) (*phash.Map, error) {
	var dir kamino.ObjID
	if err := pool.View(func(tx *kamino.Tx) error {
		var err error
		dir, err = tx.Ptr(pool.Root(), 0)
		return err
	}); err != nil {
		return nil, err
	}
	if dir != kamino.Nil {
		return phash.Attach(pool, dir)
	}
	n := pool.Engine().Heap().Region().Size() / (8 << 10)
	m, err := phash.Create(pool, min(max(1024, n), phash.MaxBuckets))
	if err != nil {
		return nil, err
	}
	return m, pool.Update(func(tx *kamino.Tx) error {
		if err := tx.Add(pool.Root()); err != nil {
			return err
		}
		return tx.SetPtr(pool.Root(), 0, m.Dir())
	})
}

// encodeKV packs a record's arguments: the key, then the value.
func encodeKV(key uint64, val []byte) []byte {
	out := make([]byte, 8+len(val))
	binary.LittleEndian.PutUint64(out, key)
	copy(out[8:], val)
	return out
}

// lockKey is a write's admission-lock key: its key's hash bucket, since
// writes to one bucket can touch shared chain objects. Arguments too short
// to name a key — a ring record is bytes read back from NVM — lock bucket
// 0: over-locking is safe, and the write itself fails at execution.
func (r *Replica) lockKey(args []byte) uint64 {
	if len(args) < 8 {
		return 0
	}
	return uint64(r.kv.BucketIndex(binary.LittleEndian.Uint64(args)))
}

// apply executes one replicated write inside tx. The name and arguments
// may come from a ring read back from NVM, so anything but a put or a
// delete of a whole key is an error.
func (r *Replica) apply(tx *kamino.Tx, rec pqueue.Record) error {
	if len(rec.Args) < 8 {
		return fmt.Errorf("chain: short %q args", rec.Name)
	}
	key := binary.LittleEndian.Uint64(rec.Args)
	switch rec.Name {
	case opPut:
		return r.kv.Put(tx, key, rec.Args[8:])
	case opDelete:
		_, err := r.kv.Delete(tx, key)
		return err
	}
	return fmt.Errorf("chain: unknown operation %q", rec.Name)
}

// reference is the record the head's ring keeps for rec: a put named by its
// key, anything else whole. Its Args share rec's, so it allocates nothing.
func reference(rec pqueue.Record) pqueue.Record {
	if rec.Name != opPut {
		return rec
	}
	return pqueue.Record{Seq: rec.Seq, Name: opPutRef, Args: rec.Args[:8]}
}

// expand returns recs with each reference made its put again, the value
// read from the store; recs itself when it holds none. A reference's put is
// in flight, and its admission lock keeps every later write off its bucket
// until the tail acknowledges it, so the store holds exactly its value — if
// it is still in flight once the value is read. One that left the in-flight
// set by then may have read a later write's value; it and every record
// before it are acknowledged, so they are dropped. The power is held for the
// reads, so they meet the pre-crash store or the recovered one.
func (r *Replica) expand(recs []pqueue.Record) ([]pqueue.Record, error) {
	if !slices.ContainsFunc(recs, func(rec pqueue.Record) bool { return rec.Name == opPutRef }) {
		return recs, nil
	}
	r.power.RLock()
	defer r.power.RUnlock()
	out := make([]pqueue.Record, 0, len(recs))
	for _, rec := range recs {
		if rec.Name != opPutRef {
			out = append(out, rec)
			continue
		}
		if len(rec.Args) < 8 {
			return nil, fmt.Errorf("chain: reference %d has %d B of key", rec.Seq, len(rec.Args))
		}
		key := binary.LittleEndian.Uint64(rec.Args)
		var args []byte
		err := r.pool.View(func(tx *kamino.Tx) error {
			v, ok, err := r.kv.Get(tx, key)
			if ok {
				args = encodeKV(key, v)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		r.headMu.Lock()
		_, inflight := r.inflight[rec.Seq]
		r.headMu.Unlock()
		if !inflight {
			out = out[:0]
			continue
		}
		if args == nil {
			return nil, fmt.Errorf("chain: in-flight put %d of key %d is not in the store", rec.Seq, key)
		}
		out = append(out, pqueue.Record{Seq: rec.Seq, Name: opPut, Args: args})
	}
	return out, nil
}

// read looks key up in the local pool and returns a read reply's payload:
// a found flag byte, then the value, so an empty value still reads as
// found.
func (r *Replica) read(key uint64) ([]byte, error) {
	out := []byte{0}
	err := r.pool.View(func(tx *kamino.Tx) error {
		v, ok, err := r.kv.Get(tx, key)
		if ok {
			out = append([]byte{1}, v...)
		}
		return err
	})
	return out, err
}

// ErrNoHead reports that a client found no live head replica — the chain is
// mid-repair. Like a redirect it unwraps to ErrNotHead so retry loops treat
// both the same way.
var ErrNoHead = fmt.Errorf("chain: no live head replica (%w)", ErrNotHead)

// Put stores key=val through the chain and waits until the tail
// acknowledges it. Only the head accepts writes; elsewhere a RedirectError
// carries the current view so the client can retry against the real head.
func (r *Replica) Put(key uint64, val []byte) error {
	return r.submit(pqueue.Record{Name: opPut, Args: encodeKV(key, val)})
}

// Delete removes key through the chain, as Put stores one.
func (r *Replica) Delete(key uint64) error {
	return r.submit(pqueue.Record{Name: opDelete, Args: encodeKV(key, nil)})
}

// Get reads key at the tail (chain replication serves reads from the tail
// for linearizability). Like Put, a non-head returns a RedirectError naming
// the current head.
func (r *Replica) Get(key uint64) ([]byte, bool, error) {
	view := r.currentView()
	if view.Head() != r.id {
		return nil, false, r.redirect(view)
	}
	var payload []byte
	var err error
	if view.Tail() == r.id {
		payload, err = r.read(key)
	} else {
		payload, err = r.call(view.Tail(), &transport.Message{
			Kind: transport.KindRead, From: r.id, ViewID: view.ID, Key: key,
		})
	}
	if err != nil || len(payload) == 0 || payload[0] == 0 {
		return nil, false, err
	}
	return payload[1:], true, nil
}
