package engine

import (
	"math/bits"

	"kaminotx/internal/heap"
	"kaminotx/internal/nvm"
)

// Extent is what a transaction stored into one write-set member's block:
// the device lines its stores touched, and the half-open byte range
// [Lo, Hi) that covers them. Both are in block coordinates: 0 is the first
// byte of the block header, heap.BlockHeaderSize the first payload byte.
// The zero Extent is empty — an object added but never written. The
// in-place engines (kamino, undo, inplace, nolog) keep one per write-set
// entry so that commit flushes, and Kamino's backup sync copies, only the
// lines stored into: a leaf that gained one key costs its three changed
// lines, not its seventeen.
//
// Bit i of lines is the i-th device line the block overlaps. An extent that
// reaches past a block's 64th line keeps only the covering range, which
// over-approximates scattered stores and never misses one.
type Extent struct {
	Lo, Hi int
	lines  uint64
}

// maxLines is how many of a block's device lines an Extent tells apart.
const maxLines = 64

// lineBase is the offset of obj's block within its first device line.
func lineBase(obj heap.ObjID) int {
	return (int(obj) - heap.BlockHeaderSize) % nvm.LineSize
}

// Mark records a store into bytes [lo, hi) of obj's block. Every store
// performed is marked, even one that rewrote identical bytes: strict NVM
// drops another writer's pending flush of a line that is stored into again
// (nvm.Region's re-dirty rule), so the line must be flushed once more.
func (x *Extent) Mark(obj heap.ObjID, lo, hi int) {
	if hi <= lo {
		return
	}
	if x.Hi <= x.Lo {
		x.Lo, x.Hi = lo, hi
	} else {
		x.Lo, x.Hi = min(x.Lo, lo), max(x.Hi, hi)
	}
	base := lineBase(obj)
	first, last := (base+lo)/nvm.LineSize, (base+hi-1)/nvm.LineSize
	if last < maxLines {
		x.lines |= ^uint64(0) >> (maxLines - 1 - (last - first)) << first
	}
}

// Grow records a store of n payload bytes at payload offset off of obj.
func (x *Extent) Grow(obj heap.ObjID, off, n int) {
	x.Mark(obj, heap.BlockHeaderSize+off, heap.BlockHeaderSize+off+n)
}

// WholeBlock covers the header and full payload of obj's block of the given
// payload class: an allocation's extent, and what recovery syncs for a
// committed transaction's object — the log records objects, not bytes.
func WholeBlock(obj heap.ObjID, class int) Extent {
	var x Extent
	x.Mark(obj, 0, heap.BlockHeaderSize+class)
	return x
}

// Range returns the covering range of obj's extent as a region offset and a
// length; the length is 0 for an empty extent.
func (x Extent) Range(obj heap.ObjID) (off, n int) {
	return int(obj) - heap.BlockHeaderSize + x.Lo, max(x.Hi-x.Lo, 0)
}

// Runs calls fn, in address order, with the region offset and length of
// each run of consecutive lines stored into, clipped to the covering range
// so that no byte outside the block — and none before the first or after
// the last byte stored — is named. One store yields one run with exactly
// its bytes; an extent past 64 lines yields its covering range.
func (x Extent) Runs(obj heap.ObjID, fn func(off, n int) error) error {
	if x.Hi <= x.Lo {
		return nil
	}
	block, base := int(obj)-heap.BlockHeaderSize, lineBase(obj)
	if (base+x.Hi-1)/nvm.LineSize >= maxLines {
		return fn(block+x.Lo, x.Hi-x.Lo)
	}
	for m := x.lines; m != 0; {
		first := bits.TrailingZeros64(m)
		end := first + bits.TrailingZeros64(^(m >> first))
		m &= ^uint64(0) << end
		lo := max(first*nvm.LineSize-base, x.Lo)
		hi := min(end*nvm.LineSize-base, x.Hi)
		if err := fn(block+lo, hi-lo); err != nil {
			return err
		}
	}
	return nil
}

// Flush initiates write-back of the lines of obj's block stored into (no
// fence). An empty extent leaves the device alone.
func (x Extent) Flush(reg *nvm.Region, obj heap.ObjID) error {
	return x.Runs(obj, reg.Flush)
}
