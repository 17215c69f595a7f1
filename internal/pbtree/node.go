package pbtree

import (
	"encoding/binary"
	"fmt"
	"sync"

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

// node is the volatile decoded form of a persistent node.
type node struct {
	leaf bool
	keys []uint64
	ptrs []kamino.ObjID // children (internal) or values (leaf)
	next kamino.ObjID   // leaf chain
}

func (t *Tree) offPtrs() int { return offKeys + 8*t.order }
func (t *Tree) offNext() int { return t.offPtrs() + 8*t.order }

// decodeNode parses raw node bytes.
func (t *Tree) decodeNode(b []byte) (*node, error) {
	if len(b) < nodeSize(t.order) {
		return nil, fmt.Errorf("pbtree: node too small: %d bytes", len(b))
	}
	flags := binary.LittleEndian.Uint32(b[offFlags:])
	n := int(binary.LittleEndian.Uint32(b[offNKeys:]))
	if n < 0 || n > t.order {
		return nil, fmt.Errorf("pbtree: corrupt node: nkeys=%d order=%d", n, t.order)
	}
	nd := &node{leaf: flags&flagLeaf != 0}
	nd.keys = make([]uint64, n)
	for i := 0; i < n; i++ {
		nd.keys[i] = binary.LittleEndian.Uint64(b[offKeys+8*i:])
	}
	np := n
	if !nd.leaf {
		np = n + 1
	}
	nd.ptrs = make([]kamino.ObjID, np)
	for i := 0; i < np; i++ {
		nd.ptrs[i] = kamino.ObjID(binary.LittleEndian.Uint64(b[t.offPtrs()+8*i:]))
	}
	if nd.leaf {
		nd.next = kamino.ObjID(binary.LittleEndian.Uint64(b[t.offNext():]))
	}
	return nd, nil
}

// encodeNode serializes nd into a buffer of nodeSize bytes.
func (t *Tree) encodeNode(nd *node) []byte {
	b := make([]byte, nodeSize(t.order))
	var flags uint32
	if nd.leaf {
		flags |= flagLeaf
	}
	binary.LittleEndian.PutUint32(b[offFlags:], flags)
	binary.LittleEndian.PutUint32(b[offNKeys:], uint32(len(nd.keys)))
	for i, k := range nd.keys {
		binary.LittleEndian.PutUint64(b[offKeys+8*i:], k)
	}
	for i, p := range nd.ptrs {
		binary.LittleEndian.PutUint64(b[t.offPtrs()+8*i:], uint64(p))
	}
	if nd.leaf {
		binary.LittleEndian.PutUint64(b[t.offNext():], uint64(nd.next))
	}
	return b
}

// readNode loads a node through the physical heap (latch-protected
// navigation; no transaction lock).
func (t *Tree) readNode(obj kamino.ObjID) (*node, error) {
	b, err := t.pool.Engine().Heap().Bytes(obj)
	if err != nil {
		return nil, err
	}
	return t.decodeNode(b)
}

// readNodeTx loads a node through the transaction (own-writes visible).
func (t *Tree) readNodeTx(tx *kamino.Tx, obj kamino.ObjID) (*node, error) {
	b, err := tx.Read(obj)
	if err != nil {
		return nil, err
	}
	return t.decodeNode(b)
}

// writeNode stores nd at obj within tx. The caller must have Add'ed obj.
func (t *Tree) writeNode(tx *kamino.Tx, obj kamino.ObjID, nd *node) error {
	return tx.Write(obj, 0, t.encodeNode(nd))
}

// allocNode allocates and writes a fresh node inside tx.
func (t *Tree) allocNode(tx *kamino.Tx, nd *node) (kamino.ObjID, error) {
	obj, err := tx.Alloc(nodeSize(t.order))
	if err != nil {
		return kamino.Nil, err
	}
	if err := t.writeNode(tx, obj, nd); err != nil {
		return kamino.Nil, err
	}
	return obj, nil
}

// upperBound returns the child index for key in an internal node: the first
// slot whose separator exceeds key.
func upperBound(keys []uint64, key uint64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if key < keys[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// search returns (index, found) for key in a sorted key slice.
func search(keys []uint64, key uint64) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case keys[mid] == key:
			return mid, true
		case keys[mid] < key:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return lo, false
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
