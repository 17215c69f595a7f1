package pbtree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"

	"kaminotx/internal/nvm"
	"kaminotx/kamino"
)

// Persistent node layout (order N):
//
//	off 0:            flags  u32 (bit 0 = leaf)
//	off 4:            nkeys  u32
//	off 8:            keys   N × u64
//	off 8+8N:         ptrs   (N+1) × u64
//
// For internal nodes ptrs[0..nkeys] are children. For leaves ptrs[i] is the
// value object for keys[i] and ptrs[N] is the next-leaf pointer, forming
// the ordered leaf chain used by scans.

const (
	flagLeaf = 1 << 0

	offFlags = 0
	offNKeys = 4
	offKeys  = 8
)

func nodeSize(order int) int { return 8 + 8*order + 8*(order+1) }

func (t *Tree) offPtrs() int { return offKeys + 8*t.order }

// view is a node read where it lies: a window on the bytes Heap().Bytes or
// tx.Read returned, which alias the region's volatile image. Nothing is
// decoded or copied; every accessor is one little-endian load. A view is
// read-only, and good only while what protected the bytes is held (the
// package comment has the rule).
type view struct {
	b    []byte // exactly nodeSize bytes
	ptrs int    // offset of ptrs[0]
	n    int    // nkeys, checked against the order once
}

// view checks raw node bytes (an object's payload, at least a node long)
// and wraps them.
func (t *Tree) view(b []byte) (view, error) {
	size := nodeSize(t.order)
	if len(b) < size {
		return view{}, fmt.Errorf("pbtree: node too small: %d bytes", len(b))
	}
	n := int(binary.LittleEndian.Uint32(b[offNKeys:]))
	if n < 0 || n > t.order {
		return view{}, fmt.Errorf("pbtree: corrupt node: nkeys=%d order=%d", n, t.order)
	}
	return view{b: b[:size], ptrs: t.offPtrs(), n: n}, nil
}

func (v view) leaf() bool { return binary.LittleEndian.Uint32(v.b[offFlags:])&flagLeaf != 0 }
func (v view) nkeys() int { return v.n }

func (v view) key(i int) uint64 { return binary.LittleEndian.Uint64(v.b[offKeys+8*i:]) }

// ptr returns child i of an internal node, value object i of a leaf.
func (v view) ptr(i int) kamino.ObjID {
	return kamino.ObjID(binary.LittleEndian.Uint64(v.b[v.ptrs+8*i:]))
}

// next returns a leaf's successor in the leaf chain: the last pointer slot.
func (v view) next() kamino.ObjID {
	return kamino.ObjID(binary.LittleEndian.Uint64(v.b[len(v.b)-8:]))
}

// upperBound returns the child index for key in an internal node: the first
// slot whose separator exceeds key.
func (v view) upperBound(key uint64) int {
	lo, hi := 0, v.n
	for lo < hi {
		mid := (lo + hi) / 2
		if key < v.key(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// child returns the child an internal node routes key to.
func (v view) child(key uint64) kamino.ObjID { return v.ptr(v.upperBound(key)) }

// search returns (index, found) for key among the node's sorted keys.
func (v view) search(key uint64) (int, bool) {
	lo, hi := 0, v.n
	for lo < hi {
		mid := (lo + hi) / 2
		switch k := v.key(mid); {
		case k == key:
			return mid, true
		case k < key:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return lo, false
}

// nodeView reads a node through the physical heap (latch-protected
// navigation; no transaction lock).
func (t *Tree) nodeView(obj kamino.ObjID) (view, error) {
	b, err := t.pool.Engine().Heap().Bytes(obj)
	if err != nil {
		return view{}, err
	}
	return t.view(b)
}

// nodeViewTx reads a node through the transaction (own writes visible; a
// read lock unless the node is in the write set).
func (t *Tree) nodeViewTx(tx *kamino.Tx, obj kamino.ObjID) (view, error) {
	b, err := tx.Read(obj)
	if err != nil {
		return view{}, err
	}
	return t.view(b)
}

// image is a node's new contents under construction: the paths that change
// a node assemble them in a scratch buffer of nodeSize bytes, zeros past its
// last key and pointer, and hand it to tx.Write — whole (store), or as the
// lines that differ from the node's old contents (storeChanged). Keys and pointers
// are appended in order, usually as runs copied out of a view of the old
// node — which the buffer never aliases, so the old node stays readable
// until the write.
type image struct {
	b      []byte
	ptrs   int
	nk, np int
}

// images recycles the scratch buffers; tx.Write copies out of them. An image
// dropped on an error path is simply collected.
var images = sync.Pool{New: func() any { return new(image) }}

// newImage returns an empty node image, every byte past the flags zero.
func (t *Tree) newImage(leaf bool) *image {
	im := images.Get().(*image)
	size := nodeSize(t.order)
	if cap(im.b) < size {
		im.b = make([]byte, size)
	}
	im.b = im.b[:size]
	clear(im.b)
	im.ptrs, im.nk, im.np = t.offPtrs(), 0, 0
	if leaf {
		binary.LittleEndian.PutUint32(im.b[offFlags:], flagLeaf)
	}
	return im
}

func (im *image) addKey(k uint64) {
	binary.LittleEndian.PutUint64(im.b[offKeys+8*im.nk:], k)
	im.nk++
}

func (im *image) addPtr(p kamino.ObjID) {
	binary.LittleEndian.PutUint64(im.b[im.ptrs+8*im.np:], uint64(p))
	im.np++
}

// addKeys appends v's keys [from, to).
func (im *image) addKeys(v view, from, to int) {
	copy(im.b[offKeys+8*im.nk:], v.b[offKeys+8*from:offKeys+8*to])
	im.nk += to - from
}

// addPtrs appends v's pointers [from, to).
func (im *image) addPtrs(v view, from, to int) {
	copy(im.b[im.ptrs+8*im.np:], v.b[v.ptrs+8*from:v.ptrs+8*to])
	im.np += to - from
}

// setNext stores a leaf's successor.
func (im *image) setNext(p kamino.ObjID) {
	binary.LittleEndian.PutUint64(im.b[len(im.b)-8:], uint64(p))
}

// store writes the image to obj within tx and recycles the buffer. The
// caller must have Add'ed obj (or allocated it in tx).
func (im *image) store(tx *kamino.Tx, obj kamino.ObjID) error {
	binary.LittleEndian.PutUint32(im.b[offNKeys:], uint32(im.nk))
	err := tx.Write(obj, 0, im.b)
	images.Put(im)
	return err
}

// storeChanged writes the image over old — obj's current contents as tx
// sees them — within tx, and recycles the buffer. Only the runs of device
// lines in which the two differ are stored; a line with no changed byte
// gets no store at all, so a key added at the end of a leaf stores the
// three lines holding the key count, the key and the pointer. Every line of
// a run is stored whole (within the node), unchanged bytes included: the
// engine marks each store's lines, and only lines it is never handed may go
// unflushed. The caller must have Add'ed obj.
func (im *image) storeChanged(tx *kamino.Tx, obj kamino.ObjID, old view) error {
	binary.LittleEndian.PutUint32(im.b[offNKeys:], uint32(im.nk))
	err := writeChanged(tx, obj, old.b, im.b)
	images.Put(im)
	return err
}

// writeChanged stores b over old (the same length) at payload offset 0 of
// obj, as one write per run of device lines that differ. A run's store
// changes only bytes at and past its start, so the comparisons after it
// still read old's bytes.
func writeChanged(tx *kamino.Tx, obj kamino.ObjID, old, b []byte) error {
	start := -1
	for lo := 0; lo < len(b); {
		hi := min(lo+nvm.LineSize-(int(obj)+lo)%nvm.LineSize, len(b))
		switch same := bytes.Equal(old[lo:hi], b[lo:hi]); {
		case !same && start < 0:
			start = lo
		case same && start >= 0:
			if err := tx.Write(obj, start, b[start:lo]); err != nil {
				return err
			}
			start = -1
		}
		lo = hi
	}
	if start < 0 {
		return nil
	}
	return tx.Write(obj, start, b[start:])
}

// alloc allocates a fresh node inside tx and stores the image there.
func (im *image) alloc(tx *kamino.Tx) (kamino.ObjID, error) {
	obj, err := tx.Alloc(len(im.b))
	if err != nil {
		return kamino.Nil, err
	}
	return obj, im.store(tx, obj)
}

// Value objects hold a u32 length prefix followed by the bytes.

func valueSize(n int) int { return 4 + n }

// valueBufs recycles writeValue's encode buffers.
var valueBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeValue stores val, length prefix and bytes, as a single write (one
// device store, one dirty extent); tx.Write copies out of the buffer, so it
// goes straight back to the pool.
func (t *Tree) writeValue(tx *kamino.Tx, obj kamino.ObjID, val []byte) error {
	bp := valueBufs.Get().(*[]byte)
	buf := binary.LittleEndian.AppendUint32((*bp)[:0], uint32(len(val)))
	buf = append(buf, val...)
	err := tx.Write(obj, 0, buf)
	*bp = buf
	valueBufs.Put(bp)
	return err
}

func decodeValue(b []byte) ([]byte, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("pbtree: value object too small")
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n < 0 || 4+n > len(b) {
		return nil, fmt.Errorf("pbtree: corrupt value length %d in %d-byte object", n, len(b))
	}
	out := make([]byte, n)
	copy(out, b[4:4+n])
	return out, nil
}
