package engine

import (
	"kaminotx/internal/heap"
	"kaminotx/internal/nvm"
)

// Extent is the part of one write-set member's block that its transaction
// changed: the half-open byte range [Lo, Hi) in block coordinates, where 0
// is the first byte of the block header and heap.BlockHeaderSize the first
// payload byte. The zero Extent is empty — an object added but never
// written. The in-place engines (kamino, undo, inplace, nolog) keep one per
// write-set entry so that commit flushes, and Kamino's backup sync copies,
// only those bytes. One covering range over-approximates scattered writes;
// it never misses one.
type Extent struct{ Lo, Hi int }

// WholeBlock covers the header and full payload of a block of the given
// payload class. Allocated and freed objects use it: their header changes
// along with (or instead of) their payload.
func WholeBlock(class int) Extent { return Extent{0, heap.BlockHeaderSize + class} }

// Grow widens the extent to cover n payload bytes at payload offset off.
func (x *Extent) Grow(off, n int) {
	lo, hi := heap.BlockHeaderSize+off, heap.BlockHeaderSize+off+n
	switch {
	case n <= 0:
	case x.Hi <= x.Lo:
		*x = Extent{lo, hi}
	default:
		x.Lo, x.Hi = min(x.Lo, lo), max(x.Hi, hi)
	}
}

// Range returns the extent of obj's block as a region offset and a length;
// the length is 0 for an empty extent.
func (x Extent) Range(obj heap.ObjID) (off, n int) {
	return int(obj) - heap.BlockHeaderSize + x.Lo, max(x.Hi-x.Lo, 0)
}

// Flush initiates write-back of obj's dirty bytes in reg (no fence). An
// empty extent leaves the device alone.
func (x Extent) Flush(reg *nvm.Region, obj heap.ObjID) error {
	off, n := x.Range(obj)
	if n == 0 {
		return nil
	}
	return reg.Flush(off, n)
}
