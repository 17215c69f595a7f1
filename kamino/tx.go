package kamino

import (
	"encoding/binary"
	"fmt"

	"kaminotx/internal/engine"
)

// Tx is a transaction over a Pool. It mirrors NVML's transactional API
// (Table 2 of the paper) with typed helpers for the common field accesses
// persistent data structures need. A Tx is single-goroutine; after Commit
// or Abort it is spent: every operation on it answers ErrTxDone, for as long
// as the handle is kept — the handle is never reused, though the engine
// recycles the bookkeeping behind it.
type Tx struct {
	inner   engine.Tx
	pool    *Pool
	touched []ObjID
	few     [4]ObjID // touched's first backing: most transactions touch a few objects
}

// ID returns the transaction id.
func (t *Tx) ID() uint64 { return t.inner.ID() }

// TouchedObjects returns the objects this transaction declared write
// intents on (via Add, Alloc or Free), in declaration order with possible
// duplicates. Only tests call it, to check which objects an operation
// declared.
func (t *Tx) TouchedObjects() []ObjID { return t.touched }

// Add declares a write intent on obj (NVML TX_ADD). It blocks while a prior
// dependent transaction's backup sync is pending.
func (t *Tx) Add(obj ObjID) error {
	if err := t.inner.Add(obj); err != nil {
		return err
	}
	t.touched = append(t.touched, obj)
	return nil
}

// Lock takes obj's write lock without declaring a write intent: nothing is
// logged, copied or persisted for obj, Write refuses it, and the lock drops
// when the transaction ends (under Kamino modes it is not held for the
// backup sync). Writers of a shared structure serialize on it; Add upgrades
// it if obj turns out to change. obj does not join TouchedObjects.
func (t *Tx) Lock(obj ObjID) error { return t.inner.Lock(obj) }

// Write stores data at off within obj's payload. obj must be in the write
// set (via Add or Alloc).
func (t *Tx) Write(obj ObjID, off int, data []byte) error {
	return t.inner.Write(obj, off, data)
}

// Read returns a read-only view of obj's payload as this transaction sees
// it. The view is valid until the transaction finishes.
func (t *Tx) Read(obj ObjID) ([]byte, error) { return t.inner.Read(obj) }

// ReadAt copies n bytes at off from obj into a fresh slice.
func (t *Tx) ReadAt(obj ObjID, off, n int) ([]byte, error) {
	b, err := t.inner.Read(obj)
	if err != nil {
		return nil, err
	}
	if off < 0 || off+n > len(b) {
		return nil, fmt.Errorf("kamino: ReadAt [%d,%d) out of object bounds %d", off, off+n, len(b))
	}
	out := make([]byte, n)
	copy(out, b[off:])
	return out, nil
}

// Alloc transactionally allocates a zeroed object (NVML TX_ZALLOC).
func (t *Tx) Alloc(size int) (ObjID, error) {
	obj, err := t.inner.Alloc(size)
	if err != nil {
		return obj, err
	}
	t.touched = append(t.touched, obj)
	return obj, nil
}

// Free transactionally deallocates obj (NVML TX_FREE); effective at commit.
func (t *Tx) Free(obj ObjID) error {
	if err := t.inner.Free(obj); err != nil {
		return err
	}
	t.touched = append(t.touched, obj)
	return nil
}

// Commit makes the transaction durable and atomic (NVML TX_COMMIT /
// TX_END). Under Kamino modes it returns without copying any data; the
// backup sync completes asynchronously.
func (t *Tx) Commit() error { return t.inner.Commit() }

// Abort rolls the transaction back (NVML TX_ABORT).
func (t *Tx) Abort() error { return t.inner.Abort() }

// SetUint64 writes an 8-byte little-endian field.
func (t *Tx) SetUint64(obj ObjID, off int, v uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return t.Write(obj, off, buf[:])
}

// Uint64 reads an 8-byte little-endian field.
func (t *Tx) Uint64(obj ObjID, off int) (uint64, error) {
	b, err := t.inner.Read(obj)
	if err != nil {
		return 0, err
	}
	if off < 0 || off+8 > len(b) {
		return 0, fmt.Errorf("kamino: Uint64 at %d out of object bounds %d", off, len(b))
	}
	return binary.LittleEndian.Uint64(b[off:]), nil
}

// SetUint32 writes a 4-byte little-endian field.
func (t *Tx) SetUint32(obj ObjID, off int, v uint32) error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	return t.Write(obj, off, buf[:])
}

// Uint32 reads a 4-byte little-endian field.
func (t *Tx) Uint32(obj ObjID, off int) (uint32, error) {
	b, err := t.inner.Read(obj)
	if err != nil {
		return 0, err
	}
	if off < 0 || off+4 > len(b) {
		return 0, fmt.Errorf("kamino: Uint32 at %d out of object bounds %d", off, len(b))
	}
	return binary.LittleEndian.Uint32(b[off:]), nil
}

// SetPtr stores a persistent pointer field (an ObjID).
func (t *Tx) SetPtr(obj ObjID, off int, target ObjID) error {
	return t.SetUint64(obj, off, uint64(target))
}

// Ptr reads a persistent pointer field.
func (t *Tx) Ptr(obj ObjID, off int) (ObjID, error) {
	v, err := t.Uint64(obj, off)
	return ObjID(v), err
}

// SetString writes a length-prefixed string field at off: 4 bytes of length
// followed by the bytes. It fails if the string does not fit.
func (t *Tx) SetString(obj ObjID, off int, s string) error {
	if err := t.SetUint32(obj, off, uint32(len(s))); err != nil {
		return err
	}
	return t.Write(obj, off+4, []byte(s))
}

// String reads a length-prefixed string field at off.
func (t *Tx) String(obj ObjID, off int) (string, error) {
	n, err := t.Uint32(obj, off)
	if err != nil {
		return "", err
	}
	b, err := t.ReadAt(obj, off+4, int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}
